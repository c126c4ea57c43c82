package memsim

import "testing"

// BenchmarkDetHandoff measures the host cost of one DetEnv handoff, the
// switch from one virtual thread to another, and reports it per
// HostWork.Handoffs over the whole run. The threads pass a flag round a
// ring: thread id waits for each value i ≡ id modulo the ring size and
// stores i+1.
//
//   - pingpong: 2 threads wait with an open-coded Load/Yield loop, so
//     nearly every scheduling point switches threads and ns/handoff is
//     close to the bare switch cost.
//   - convoy: 36 threads wait with SpinLoadUntilEq; every store wakes the
//     next thread, and the 34 passive waiters are stepped inline between
//     handoffs.
func BenchmarkDetHandoff(b *testing.B) {
	cases := []struct {
		name    string
		threads int
		wait    func(th *Thread, a Addr, want uint64)
	}{
		{"pingpong_2threads", 2, openCodedWaits.eq},
		{"convoy_36threads", 36, passiveWaits.eq},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			env := NewDet(DetConfig{Threads: c.threads})
			flag := env.Alloc(1)
			b.ResetTimer()
			env.Run(func(th *Thread) {
				for i := th.ID(); i < b.N; i += c.threads {
					c.wait(th, flag, uint64(i))
					th.Store(flag, uint64(i+1))
				}
			})
			b.StopTimer()
			hw := env.HostWork()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hw.Handoffs), "ns/handoff")
			b.ReportMetric(float64(hw.Handoffs)/float64(b.N), "handoffs/op")
		})
	}
}
