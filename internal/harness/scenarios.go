package harness

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"hcf/internal/engine"
	"hcf/internal/memsim"
	"hcf/internal/seq/avl"
	"hcf/internal/seq/btree"
	"hcf/internal/seq/deque"
	"hcf/internal/seq/hashtable"
	"hcf/internal/seq/queue"
	"hcf/internal/seq/skiplist"
	"hcf/internal/seq/skipset"
	"hcf/internal/seq/sortedlist"
	"hcf/internal/seq/stack"
	"hcf/internal/workload"
)

// HashTableScenario is the §3.3 workload: a table with `buckets` buckets
// over a key range of the same size, prefilled to half capacity; findPct%
// Finds with the rest split evenly between Inserts and Removes.
func HashTableScenario(findPct, buckets int) Scenario {
	mix, err := workload.UpdateMix(findPct)
	if err != nil {
		return Scenario{Err: err}
	}
	return Scenario{
		Name: fmt.Sprintf("hashtable/find=%d%%", findPct),
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			tbl := hashtable.New(boot, buckets)
			keys := workload.Uniform{N: uint64(buckets)}
			pre := rand.New(rand.NewPCG(seed, 0xF17))
			for i := 0; i < buckets/2; i++ {
				k := keys.Next(pre)
				tbl.Insert(boot, k, k)
			}
			return Instance{
				Policies:   hashtable.Policies(),
				ClassNames: []string{"find", "insert", "remove"},
				Combine:    hashtable.CombineMixed,
				NextOp: func(r *rand.Rand) engine.Op {
					k := keys.Next(r)
					switch mix.Pick(r) {
					case 0:
						return hashtable.FindOp{T: tbl, Key: k}
					case 1:
						return hashtable.InsertOp{T: tbl, Key: k, Val: k}
					default:
						return hashtable.RemoveOp{T: tbl, Key: k}
					}
				},
				Check: tbl.CheckInvariants,
			}
		},
	}
}

// AVLVariant selects the HCF configuration ablations of §3.4.
type AVLVariant int

// AVL scenario variants.
const (
	// AVLCombining is the paper's main configuration: one publication
	// array, subtree-restricted selection, combining and elimination.
	AVLCombining AVLVariant = iota
	// AVLNoCombine has a combiner apply announced operations one after
	// another with no combining or elimination.
	AVLNoCombine
	// AVLTwoArrays partitions announcements into two publication arrays by
	// key (one per root subtree, approximated by the range midpoint).
	AVLTwoArrays
)

// AVLScenario is the §3.4 workload: an AVL set over [0, keyRange),
// prefilled to half, accessed with Zipfian keys (skew theta) and findPct%
// membership tests.
func AVLScenario(findPct int, keyRange uint64, theta float64, variant AVLVariant) Scenario {
	mix, err := workload.UpdateMix(findPct)
	err = errors.Join(err, workload.CheckTheta(theta))
	if err != nil {
		return Scenario{Err: err}
	}
	name := fmt.Sprintf("avl/find=%d%%/theta=%.1f", findPct, theta)
	switch variant {
	case AVLNoCombine:
		name += "/nocombine"
	case AVLTwoArrays:
		name += "/twoarrays"
	}
	return Scenario{
		Name: name,
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			tree := avl.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0xA71))
			for i := uint64(0); i < keyRange/2; i++ {
				tree.Insert(boot, pre.Uint64N(keyRange))
			}
			zipf, err := workload.NewZipf(keyRange, theta)
			if err != nil {
				panic(err)
			}
			var policies = avl.Policies(1)
			arrOf := func(uint64) int { return 0 }
			switch variant {
			case AVLNoCombine:
				policies = avl.NoCombinePolicies()
			case AVLTwoArrays:
				policies = avl.Policies(2)
				pivot := keyRange / 2
				arrOf = func(k uint64) int {
					if k < pivot {
						return 0
					}
					return 1
				}
			}
			return Instance{
				Policies: policies,
				Combine:  avl.CombineOps,
				NextOp: func(r *rand.Rand) engine.Op {
					k := zipf.Next(r)
					switch mix.Pick(r) {
					case 0:
						return avl.FindOp{T: tree, K: k, Arr: arrOf(k)}
					case 1:
						return avl.InsertOp{T: tree, K: k, Arr: arrOf(k)}
					default:
						return avl.RemoveOp{T: tree, K: k, Arr: arrOf(k)}
					}
				},
				Check: tree.CheckInvariants,
			}
		},
	}
}

// HashTableBudgetScenario is HashTableScenario with the Insert class's
// speculation budgets overridden — the sensitivity sweep behind the
// paper's claim that the 2/3/5 split "works reasonably well across a wide
// range of data structures and workloads" (§3.3).
func HashTableBudgetScenario(findPct, buckets, private, visible, combining int) Scenario {
	base := HashTableScenario(findPct, buckets)
	if base.Err != nil {
		return base
	}
	return Scenario{
		Name: fmt.Sprintf("%s/budget=%d-%d-%d", base.Name, private, visible, combining),
		Setup: func(env memsim.Env, seed uint64) Instance {
			inst := base.Setup(env, seed)
			ins := &inst.Policies[hashtable.ClassInsert]
			ins.TryPrivateTrials = private
			ins.TryVisibleTrials = visible
			ins.TryCombiningTrials = combining
			return inst
		},
	}
}

// SkipSetScenario exercises the skip-list-based ordered set under a skewed
// workload: findPct% Contains, the rest split between Insert and Remove,
// Zipfian keys.
func SkipSetScenario(findPct int, keyRange uint64, theta float64) Scenario {
	mix, err := workload.UpdateMix(findPct)
	err = errors.Join(err, workload.CheckTheta(theta))
	if err != nil {
		return Scenario{Err: err}
	}
	return Scenario{
		Name: fmt.Sprintf("skipset/find=%d%%/theta=%.1f", findPct, theta),
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			s := skipset.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0x55E7))
			for i := uint64(0); i < keyRange/2; i++ {
				s.Insert(boot, pre.Uint64N(keyRange), skipset.RandomLevel(pre))
			}
			zipf, err := workload.NewZipf(keyRange, theta)
			if err != nil {
				panic(err)
			}
			return Instance{
				Policies: skipset.Policies(),
				Combine:  skipset.CombineOps,
				NextOp: func(r *rand.Rand) engine.Op {
					k := zipf.Next(r)
					switch mix.Pick(r) {
					case 0:
						return skipset.ContainsOp{S: s, K: k}
					case 1:
						return skipset.InsertOp{S: s, K: k, Level: skipset.RandomLevel(r)}
					default:
						return skipset.RemoveOp{S: s, K: k}
					}
				},
				Check: s.CheckInvariants,
			}
		},
	}
}

// SortedListScenario exercises the O(n)-scan sorted linked list: long
// walks make speculation fragile (capacity and conflict aborts), while a
// combiner applies a whole batch in one merge pass.
func SortedListScenario(findPct int, keyRange uint64) Scenario {
	mix, err := workload.UpdateMix(findPct)
	if err != nil {
		return Scenario{Err: err}
	}
	return Scenario{
		Name: fmt.Sprintf("sortedlist/find=%d%%", findPct),
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			l := sortedlist.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0x50F7))
			for i := uint64(0); i < keyRange/2; i++ {
				l.Insert(boot, pre.Uint64N(keyRange))
			}
			return Instance{
				Policies: sortedlist.Policies(),
				Combine:  sortedlist.CombineOps,
				NextOp: func(r *rand.Rand) engine.Op {
					k := r.Uint64N(keyRange)
					switch mix.Pick(r) {
					case 0:
						return sortedlist.ContainsOp{L: l, K: k}
					case 1:
						return sortedlist.InsertOp{L: l, K: k}
					default:
						return sortedlist.RemoveOp{L: l, K: k}
					}
				},
				Check: l.CheckInvariants,
			}
		},
	}
}

// QueueScenario is a FIFO queue under enqPct% enqueues, with per-end
// publication arrays and chain-splicing combiners.
func QueueScenario(enqPct, prefill int) Scenario {
	if err := workload.CheckPercent("enqueue", enqPct); err != nil {
		return Scenario{Err: err}
	}
	return Scenario{
		Name: fmt.Sprintf("queue/enq=%d%%", enqPct),
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			q := queue.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0xF1F0))
			for i := 0; i < prefill; i++ {
				q.Enqueue(boot, pre.Uint64()>>1)
			}
			return Instance{
				Policies: queue.Policies(),
				Combine:  queue.CombineMixed,
				NextOp: func(r *rand.Rand) engine.Op {
					if int(r.Uint64N(100)) < enqPct {
						return queue.EnqueueOp{Q: q, Val: r.Uint64() >> 1}
					}
					return queue.DequeueOp{Q: q}
				},
				Check: q.CheckInvariants,
			}
		},
	}
}

// BTreeScenario runs the AVL workload shape (§3.4) over a B-tree: multi-key
// nodes mean fewer cache lines per operation, a friendlier footprint for
// speculation, with the same combining/elimination discipline under skew.
func BTreeScenario(findPct int, keyRange uint64, theta float64) Scenario {
	mix, err := workload.UpdateMix(findPct)
	err = errors.Join(err, workload.CheckTheta(theta))
	if err != nil {
		return Scenario{Err: err}
	}
	return Scenario{
		Name: fmt.Sprintf("btree/find=%d%%/theta=%.1f", findPct, theta),
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			tree := btree.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0xB7EE))
			for i := uint64(0); i < keyRange/2; i++ {
				tree.Insert(boot, pre.Uint64N(keyRange))
			}
			zipf, err := workload.NewZipf(keyRange, theta)
			if err != nil {
				panic(err)
			}
			return Instance{
				Policies: btree.Policies(),
				Combine:  btree.CombineOps,
				NextOp: func(r *rand.Rand) engine.Op {
					k := zipf.Next(r)
					switch mix.Pick(r) {
					case 0:
						return btree.ContainsOp{T: tree, K: k}
					case 1:
						return btree.InsertOp{T: tree, K: k}
					default:
						return btree.RemoveOp{T: tree, K: k}
					}
				},
				Check: tree.CheckInvariants,
			}
		},
	}
}

// PQScenario is the introduction's priority-queue workload: insertPct%
// Inserts of uniform priorities, the rest RemoveMins, over a queue
// prefilled with `prefill` elements.
func PQScenario(insertPct int, keyRange uint64, prefill int) Scenario {
	if err := workload.CheckPercent("insert", insertPct); err != nil {
		return Scenario{Err: err}
	}
	return Scenario{
		Name: fmt.Sprintf("pqueue/insert=%d%%", insertPct),
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			q := skiplist.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0x901))
			for i := 0; i < prefill; i++ {
				q.Insert(boot, pre.Uint64N(keyRange), skiplist.RandomLevel(pre))
			}
			return Instance{
				Policies: skiplist.Policies(),
				Combine:  skiplist.CombineMixed,
				NextOp: func(r *rand.Rand) engine.Op {
					if int(r.Uint64N(100)) < insertPct {
						return skiplist.InsertOp{
							Q:     q,
							Key:   r.Uint64N(keyRange),
							Level: skiplist.RandomLevel(r),
						}
					}
					return skiplist.RemoveMinOp{Q: q}
				},
				Check: q.CheckInvariants,
			}
		},
	}
}

// StackScenario is the §3.1 qualitative case: a 50/50 push/pop stack where
// FC is expected to win.
func StackScenario(prefill int) Scenario {
	return Scenario{
		Name: "stack/push=50%",
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			s := stack.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0x57C))
			for i := 0; i < prefill; i++ {
				s.Push(boot, pre.Uint64())
			}
			return Instance{
				Policies: stack.Policies(),
				Combine:  stack.Combine,
				NextOp: func(r *rand.Rand) engine.Op {
					if r.Uint64N(2) == 0 {
						return stack.PushOp{S: s, Val: r.Uint64() >> 1}
					}
					return stack.PopOp{S: s}
				},
			}
		},
	}
}

// DequeScenario is the §2.4 example: uniform operations over both deque
// ends, two publication arrays, optionally the specialized (hold the
// selection lock) variant.
func DequeScenario(prefill int, hold bool) Scenario {
	name := "deque/uniform"
	if hold {
		name += "/specialized"
	}
	return Scenario{
		Name: name,
		Setup: func(env memsim.Env, seed uint64) Instance {
			boot := env.Boot()
			d := deque.New(boot)
			pre := rand.New(rand.NewPCG(seed, 0xDE0))
			for i := 0; i < prefill; i++ {
				d.PushRight(boot, pre.Uint64()>>1)
			}
			return Instance{
				Policies:          deque.Policies(),
				HoldSelectionLock: hold,
				Combine:           deque.CombineMixed,
				NextOp: func(r *rand.Rand) engine.Op {
					switch r.Uint64N(4) {
					case 0:
						return deque.PushLeftOp{D: d, Val: r.Uint64() >> 1}
					case 1:
						return deque.PushRightOp{D: d, Val: r.Uint64() >> 1}
					case 2:
						return deque.PopLeftOp{D: d}
					default:
						return deque.PopRightOp{D: d}
					}
				},
				Check: d.CheckInvariants,
			}
		},
	}
}
