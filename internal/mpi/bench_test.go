package mpi

import (
	"fmt"
	"testing"

	"loadimb/internal/trace"
)

var benchLog *trace.Log

// BenchmarkWorldLog times World.Log alone, on streams a real run
// recorded: each iteration a rank computes for a rank-dependent time,
// exchanges with its ring neighbours and joins an allreduce, four events
// in one of four regions, so the ranks' streams interleave and tie at
// every allreduce exit. Shapes are ranks x events per rank: 8x140 is the
// CFD run of the benchmark's observed_app workload.
func BenchmarkWorldLog(b *testing.B) {
	for _, shape := range []struct{ procs, events int }{{8, 140}, {64, 140}, {1024, 64}} {
		b.Run(fmt.Sprintf("%dx%d", shape.procs, shape.events), func(b *testing.B) {
			w, err := NewWorld(shape.procs, DefaultCostModel())
			if err != nil {
				b.Fatal(err)
			}
			regions := []string{"loop 1", "loop 2", "loop 3", "loop 4"}
			if err := w.Run(func(c *Comm) error {
				r, p := c.Rank(), c.Size()
				for it := 0; it < shape.events/4; it++ {
					if err := c.EnterRegion(regions[it%len(regions)]); err != nil {
						return err
					}
					if err := c.Compute(1e-3 * (1 + float64((7*r+3*it)%5)/10)); err != nil {
						return err
					}
					if _, err := c.Sendrecv((r+1)%p, 4096, (r+p-1)%p, it); err != nil {
						return err
					}
					if err := c.Allreduce(8); err != nil {
						return err
					}
					if err := c.ExitRegion(); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchLog, err = w.Log(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
