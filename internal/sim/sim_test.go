package sim

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestNewEngine(t *testing.T) {
	if _, err := NewEngine(0); !errors.Is(err, ErrBadRanks) {
		t.Errorf("zero ranks err = %v", err)
	}
	e, err := NewEngine(4)
	if err != nil || e.Procs() != 4 {
		t.Fatalf("NewEngine = %v, %v", e, err)
	}
}

func TestPostFetch(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		switch rank {
		case 0:
			return e.Post(0, 1, 7, Message{Arrival: 1.5, Bytes: 64})
		case 1:
			msg, err := e.Fetch(0, 1, 7)
			if err != nil {
				return err
			}
			if msg.Arrival != 1.5 || msg.Bytes != 64 {
				return fmt.Errorf("msg = %+v", msg)
			}
			return nil
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}

func TestFIFOOrder(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	run := e.Run(func(rank int) error {
		if rank == 0 {
			for i := 0; i < n; i++ {
				if err := e.Post(0, 1, 0, Message{Arrival: float64(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			msg, err := e.Fetch(0, 1, 0)
			if err != nil {
				return err
			}
			if msg.Arrival != float64(i) {
				return fmt.Errorf("message %d arrived as %g", i, msg.Arrival)
			}
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}

func TestTagsAreIndependent(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		if rank == 0 {
			if err := e.Post(0, 1, 1, Message{Arrival: 10}); err != nil {
				return err
			}
			return e.Post(0, 1, 2, Message{Arrival: 20})
		}
		// Receive tag 2 first even though tag 1 was posted first.
		m2, err := e.Fetch(0, 1, 2)
		if err != nil {
			return err
		}
		m1, err := e.Fetch(0, 1, 1)
		if err != nil {
			return err
		}
		if m2.Arrival != 20 || m1.Arrival != 10 {
			return fmt.Errorf("tag routing wrong: %v %v", m1, m2)
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}

func TestRankValidation(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Post(-1, 0, 0, Message{}); !errors.Is(err, ErrRankRange) {
		t.Errorf("bad src err = %v", err)
	}
	if err := e.Post(0, 5, 0, Message{}); !errors.Is(err, ErrRankRange) {
		t.Errorf("bad dst err = %v", err)
	}
	if _, err := e.Fetch(9, 0, 0); !errors.Is(err, ErrRankRange) {
		t.Errorf("bad fetch src err = %v", err)
	}
	if _, err := e.Collective(7, "x", 0, 0); !errors.Is(err, ErrRankRange) {
		t.Errorf("bad collective rank err = %v", err)
	}
}

func TestCollective(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		arrival := float64(rank) * 2
		res, err := e.Collective(rank, "barrier", arrival, float64(rank))
		if err != nil {
			return err
		}
		if res.Max != 6 {
			return fmt.Errorf("max = %g, want 6", res.Max)
		}
		if res.Sum != 6 {
			return fmt.Errorf("sum = %g, want 0+1+2+3", res.Sum)
		}
		if arr := res.Arrivals(); arr[3] != 6 || arr[0] != 0 {
			return fmt.Errorf("arrivals = %v", arr)
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}

func TestConsecutiveCollectives(t *testing.T) {
	e, err := NewEngine(3)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		clock := float64(rank)
		for round := 0; round < 50; round++ {
			res, err := e.Collective(rank, "step", clock, 0)
			if err != nil {
				return err
			}
			// Everyone leaves at the same max; clocks re-diverge.
			clock = res.Max + float64(rank)
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}

func TestCollectiveMismatch(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		op := "reduce"
		if rank == 1 {
			op = "barrier"
		}
		_, err := e.Collective(rank, op, 0, 0)
		return err
	})
	if !errors.Is(run, ErrCollectiveMismatch) {
		t.Errorf("mismatch err = %v", run)
	}
}

func TestRunPropagatesError(t *testing.T) {
	e, err := NewEngine(3)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	run := e.Run(func(rank int) error {
		if rank == 1 {
			return boom
		}
		// Other ranks block on a message that never comes; the abort
		// must unblock them.
		_, err := e.Fetch((rank+2)%3, rank, 0)
		return err
	})
	if !errors.Is(run, ErrCanceled) && !errors.Is(run, boom) {
		t.Errorf("run err = %v", run)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		if rank == 0 {
			panic("kaboom")
		}
		_, err := e.Collective(rank, "x", 0, 0)
		return err
	})
	if run == nil {
		t.Fatal("panic should surface as an error")
	}
}

func TestRunLeftoverMessages(t *testing.T) {
	e, err := NewEngine(2)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		if rank == 0 {
			return e.Post(0, 1, 0, Message{Arrival: 1})
		}
		return nil // never fetches
	})
	if !errors.Is(run, ErrLeftoverMessages) {
		t.Errorf("leftover err = %v", run)
	}
}

// TestDeterminism runs the same program many times and checks the final
// virtual clocks are identical despite goroutine scheduling differences.
func TestDeterminism(t *testing.T) {
	program := func() []float64 {
		const procs = 8
		e, err := NewEngine(procs)
		if err != nil {
			t.Fatal(err)
		}
		clocks := make([]float64, procs)
		var mu sync.Mutex
		run := e.Run(func(rank int) error {
			clock := float64(rank) * 0.1
			for step := 0; step < 20; step++ {
				// Ring exchange: send to the right, receive from
				// the left.
				right := (rank + 1) % procs
				left := (rank + procs - 1) % procs
				if err := e.Post(rank, right, step, Message{Arrival: clock + 0.01}); err != nil {
					return err
				}
				msg, err := e.Fetch(left, rank, step)
				if err != nil {
					return err
				}
				if msg.Arrival > clock {
					clock = msg.Arrival
				}
				clock += 0.005 * float64(rank%3)
				res, err := e.Collective(rank, "step", clock, 0)
				if err != nil {
					return err
				}
				clock = res.Max
			}
			mu.Lock()
			clocks[rank] = clock
			mu.Unlock()
			return nil
		})
		if run != nil {
			t.Fatal(run)
		}
		return clocks
	}
	first := program()
	for trial := 0; trial < 10; trial++ {
		if got := program(); fmt.Sprint(got) != fmt.Sprint(first) {
			t.Fatalf("trial %d: clocks %v != %v", trial, got, first)
		}
	}
}

func TestCollectiveValues(t *testing.T) {
	e, err := NewEngine(4)
	if err != nil {
		t.Fatal(err)
	}
	run := e.Run(func(rank int) error {
		res, err := e.Collective(rank, "allgather", 0, float64(rank)*10)
		if err != nil {
			return err
		}
		values := res.Values()
		if len(values) != 4 {
			return fmt.Errorf("values len = %d, want 4", len(values))
		}
		for r, v := range values {
			if v != float64(r)*10 {
				return fmt.Errorf("values[%d] = %g, want %g", r, v, float64(r)*10)
			}
		}
		// Each participant must get its own copy: mutating one rank's
		// slice must not be visible to the others, nor to a later call.
		for r := range values {
			values[r] = -1
		}
		if _, err := e.Collective(rank, "sync", 0, 0); err != nil {
			return err
		}
		for r, v := range res.Values() {
			if v != float64(r)*10 {
				return fmt.Errorf("after the mutation values[%d] = %g, want %g", r, v, float64(r)*10)
			}
		}
		return nil
	})
	if run != nil {
		t.Fatal(run)
	}
}
