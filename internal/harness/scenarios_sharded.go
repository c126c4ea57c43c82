package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/route"
	"hcf/internal/seq/hashtable"
	"hcf/internal/workload"
)

// ShardedHashTableScenario partitions the §3.3 hash-table workload over
// `shards` independent sub-tables: key k lives in the table the shared
// consistent-hash ring (internal/route) routes it to, each table gets
// buckets/shards buckets, and the sharding plan applies the same ring via
// hashtable.RouteKey, so the sharded engine ("HCF-S") runs one combiner
// per sub-table. crossPct percent of operations are whole-structure
// SumAll scans, which route down the all-locks cross-shard path. hotPct
// percent of keys are skewed onto the shard the ring routes them to for
// shard 0 (0 = balanced; see workload.RingSkew). Non-sharded engines run
// the identical partitioned workload behind their single lock, making
// this scenario the direct sharded-vs-single comparison point.
func ShardedHashTableScenario(findPct, buckets, shards, crossPct, hotPct int) Scenario {
	mix, err := workload.UpdateMix(findPct)
	err = errors.Join(err, workload.CheckPercent("cross", crossPct), workload.CheckPercent("hot", hotPct))
	if shards < 1 || buckets < shards {
		err = errors.Join(err, fmt.Errorf("harness: sharded hash table needs 1 <= shards <= buckets, got %d over %d", shards, buckets))
	}
	if err != nil {
		return Scenario{Err: err}
	}
	name := fmt.Sprintf("hashtable-sharded/%d/find=%d%%/cross=%d%%", shards, findPct, crossPct)
	if hotPct > 0 {
		name += fmt.Sprintf("/hot=%d%%", hotPct)
	}
	return Scenario{
		Name: name,
		Setup: func(env memsim.Env, seed uint64) Instance {
			ring, err := route.NewUniform(shards, 0, shards)
			if err != nil {
				panic(err)
			}
			boot := env.Boot()
			tables := make([]*hashtable.Table, shards)
			for i := range tables {
				tables[i] = hashtable.New(boot, buckets/shards)
			}
			tableOf := func(k uint64) *hashtable.Table { return tables[ring.Owner(k)] }
			var keys workload.KeyGen = workload.Uniform{N: uint64(buckets)}
			pre := rand.New(rand.NewPCG(seed, 0xF17))
			for i := 0; i < buckets/2; i++ {
				k := keys.Next(pre)
				tableOf(k).Insert(boot, k, k)
			}
			if hotPct > 0 {
				static, err := workload.NewSchedule() // one segment
				if err != nil {
					panic(err)
				}
				skewed, err := workload.NewRingSkew(keys, ring.Owner, static, []int{0}, hotPct)
				if err != nil {
					panic(err)
				}
				keys = skewed
			}
			return Instance{
				Policies:   hashtable.Policies(),
				ClassNames: []string{"find", "insert", "remove"},
				Combine:    hashtable.CombineMixed,
				Sharding: &Sharding{
					Shards: shards,
					Key:    hashtable.RouteKey,
					Ring:   ring,
				},
				// Fully-active elastic plan over the same ring layout:
				// "HCF-E" behaves like "HCF-S" here until something
				// calls Split/Merge (no spare shards are provisioned).
				Elastic: &ElasticPlan{
					MaxShards: shards,
					Initial:   shards,
					Key:       hashtable.RouteKey,
					Bind: func(op engine.Op, si int) engine.Op {
						return hashtable.BindTable(op, tables[si])
					},
					Migrate: func(ctx memsim.Ctx, from, to int, old, next *route.Ring) int {
						return hashtable.MigrateTables(ctx, tables, from, next)
					},
				},
				NextOp: func(r *rand.Rand) engine.Op {
					if crossPct > 0 && int(r.Uint64N(100)) < crossPct {
						return hashtable.SumAllOp{Tables: tables}
					}
					k := keys.Next(r)
					switch mix.Pick(r) {
					case 0:
						return hashtable.FindOp{T: tableOf(k), Key: k}
					case 1:
						return hashtable.InsertOp{T: tableOf(k), Key: k, Val: k}
					default:
						return hashtable.RemoveOp{T: tableOf(k), Key: k}
					}
				},
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
