package sim

import (
	"fmt"
	"testing"
)

func TestMessagePayloadDelivered(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	type halo struct{ rows []float64 }
	run := e.Run(func(rank int) error {
		if rank == 0 {
			return e.Post(0, 1, 0, Message{Arrival: 1, Bytes: 24, Payload: halo{rows: []float64{1, 2, 3}}})
		}
		msg, err := e.Fetch(0, 1, 0)
		if err != nil {
			return err
		}
		h, ok := msg.Payload.(halo)
		if !ok {
			return fmt.Errorf("payload type %T", msg.Payload)
		}
		if len(h.rows) != 3 || h.rows[2] != 3 {
			return fmt.Errorf("payload = %+v", h)
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}

func TestNilPayload(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		if rank == 0 {
			return e.Post(0, 1, 0, Message{Arrival: 1})
		}
		msg, err := e.Fetch(0, 1, 0)
		if err != nil {
			return err
		}
		if msg.Payload != nil {
			return fmt.Errorf("payload = %v", msg.Payload)
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}

// BenchmarkPointToPoint measures the engine's message throughput: one
// sender, one receiver, b.N messages.
func BenchmarkPointToPoint(b *testing.B) {
	e, err := NewEngine(2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	run := e.Run(func(rank int) error {
		if rank == 0 {
			for i := 0; i < b.N; i++ {
				if err := e.Post(0, 1, 0, Message{Arrival: float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			if _, err := e.Fetch(0, 1, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if run != nil {
		b.Fatal(run)
	}
}

// BenchmarkCollective measures the rendezvous cost across 8 ranks.
func BenchmarkCollective(b *testing.B) {
	e, err := NewEngine(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	run := e.Run(func(rank int) error {
		for i := 0; i < b.N; i++ {
			if _, err := e.Collective(rank, "bench", float64(i), 0); err != nil {
				return err
			}
		}
		return nil
	})
	if run != nil {
		b.Fatal(run)
	}
}

// BenchmarkNeighborExchange measures a halo exchange: 8 ranks in a ring,
// each step a send to and a receive from each neighbour. fixed-tags
// reuses two tags every step, as the CFD solver does; fresh-tags opens
// new ones every step, as AMR does every phase.
func BenchmarkNeighborExchange(b *testing.B) {
	const procs = 8
	for _, bc := range []struct {
		name string
		tags func(step int) (right, left int)
	}{
		{"fixed-tags", func(int) (int, int) { return 0, 1 }},
		{"fresh-tags", func(step int) (int, int) { return 2 * step, 2*step + 1 }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := NewEngine(procs)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			run := e.Run(func(rank int) error {
				right, left := (rank+1)%procs, (rank+procs-1)%procs
				for step := 0; step < b.N; step++ {
					toRight, toLeft := bc.tags(step)
					msg := Message{Arrival: float64(step), Bytes: 8}
					if err := e.Post(rank, right, toRight, msg); err != nil {
						return err
					}
					if err := e.Post(rank, left, toLeft, msg); err != nil {
						return err
					}
					if _, err := e.Fetch(left, rank, toRight); err != nil {
						return err
					}
					if _, err := e.Fetch(right, rank, toLeft); err != nil {
						return err
					}
				}
				return nil
			})
			if run != nil {
				b.Fatal(run)
			}
		})
	}
}
