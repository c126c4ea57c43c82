package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/seq/hashtable"
	"hcf/internal/shard"
	"hcf/internal/workload"
)

// ElasticScenario is the hot-shard-healing workload: a hash table
// partitioned over an elastic ring with maxShards provisioned
// frameworks of which `initial` are active (the rest are spares for
// Split to grow into). When hotPct > 0 the key stream drifts: the
// first quarter of the horizon is uniform, then hotPct% of draws
// concentrate on keys the *initial* ring routes to shard 0, and at 60%
// of the horizon the hot set jumps to shard 1's keys (see
// workload.RingSkew — splitting a hot shard re-spreads its hot set,
// which is exactly the healing mechanism under test).
//
// Operations are submitted UNBOUND (no table pointer): the elastic
// engine's Bind hook attaches the owning shard's table inside the
// validated apply. That makes this scenario elastic-only — build it
// with ElasticEngineName, not the fixed-topology engines.
func ElasticScenario(findPct, buckets, maxShards, initial, hotPct int, horizon int64) Scenario {
	mix, err := workload.UpdateMix(findPct)
	err = errors.Join(err, workload.CheckPercent("hot", hotPct))
	if maxShards < 1 || initial < 1 || initial > maxShards || buckets < maxShards {
		err = errors.Join(err, fmt.Errorf("harness: elastic hash table needs 1 <= initial <= maxShards <= buckets, got %d/%d over %d",
			initial, maxShards, buckets))
	}
	if hotPct > 0 && initial < 2 {
		err = errors.Join(err, errors.New("harness: drifting skew needs at least 2 initially active shards"))
	}
	if horizon <= 0 {
		err = errors.Join(err, errors.New("harness: elastic scenario needs a positive horizon for its drift schedule"))
	}
	if err != nil {
		return Scenario{Err: err}
	}
	name := fmt.Sprintf("hashtable-elastic/%dof%d/find=%d%%", initial, maxShards, findPct)
	if hotPct > 0 {
		name += fmt.Sprintf("/hot=%d%%drift", hotPct)
	}
	return Scenario{
		Name: name,
		Setup: func(env memsim.Env, seed uint64) Instance {
			ring, err := route.NewUniform(initial, 0, maxShards)
			if err != nil {
				panic(err)
			}
			boot := env.Boot()
			tables := make([]*hashtable.Table, maxShards)
			for i := range tables {
				tables[i] = hashtable.New(boot, max(buckets/initial, 16))
			}
			var keys workload.KeyGen = workload.Uniform{N: uint64(buckets)}
			pre := rand.New(rand.NewPCG(seed, 0xE1A57C))
			for i := 0; i < buckets/2; i++ {
				k := keys.Next(pre)
				tables[ring.Owner(k)].Insert(boot, k, k)
			}
			keyAt := func(now int64, r *rand.Rand) uint64 { return keys.Next(r) }
			if hotPct > 0 {
				sched, err := workload.NewSchedule(horizon/4, horizon*3/5)
				if err != nil {
					panic(err)
				}
				skew, err := workload.NewRingSkew(keys, ring.Owner, sched, []int{-1, 0, 1}, hotPct)
				if err != nil {
					panic(err)
				}
				keyAt = skew.NextAt
			}
			opAt := func(now int64, r *rand.Rand) engine.Op {
				k := keyAt(now, r)
				switch mix.Pick(r) {
				case 0:
					return hashtable.FindOp{Key: k}
				case 1:
					return hashtable.InsertOp{Key: k, Val: k}
				default:
					return hashtable.RemoveOp{Key: k}
				}
			}
			return Instance{
				Policies:   hashtable.Policies(),
				ClassNames: []string{"find", "insert", "remove"},
				Combine:    hashtable.CombineMixed,
				Elastic: &ElasticPlan{
					MaxShards: maxShards,
					Initial:   initial,
					Key:       hashtable.RouteKey,
					Bind: func(op engine.Op, si int) engine.Op {
						return hashtable.BindTable(op, tables[si])
					},
					Migrate: func(ctx memsim.Ctx, from, to int, old, next *route.Ring) int {
						return hashtable.MigrateTables(ctx, tables, from, next)
					},
					// MinOps is low so short smoke runs (tiny windows)
					// still accumulate enough evidence to act on.
					Rebalance: shard.RebalanceConfig{SplitRatio: 2, MinOps: 64, Cooldown: 2},
				},
				NextOp:   func(r *rand.Rand) engine.Op { return opAt(0, r) },
				NextOpAt: opAt,
				Check: func(ctx memsim.Ctx) string {
					for i, t := range tables {
						if s := t.CheckInvariants(ctx); s != "" {
							return fmt.Sprintf("shard %d: %s", i, s)
						}
					}
					return ""
				},
			}
		},
	}
}
