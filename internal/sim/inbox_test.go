package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// FuzzInbox drives one destination's inbox with a random interleaving of
// posts and fetches over a few reused (src, tag) channels and fresh tags,
// so channels drain and reopen and drained queues move between keys. What
// every fetch delivers, payload included, must equal a map-of-slices FIFO
// model, and once everything is fetched every queue the inbox made must
// be spare, and it must have made at most twice as many queues as
// channels were ever open at once.
func FuzzInbox(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0})
	f.Add([]byte{0, 1, 0, 1, 2, 0, 3, 0, 1, 5, 3, 1, 3, 0, 2, 9, 3, 2})
	f.Add([]byte{2, 0, 2, 0, 2, 0, 3, 0, 3, 0, 2, 0, 3, 1, 0, 4, 3, 0, 3, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 3, 0, 0, 0}) // grow, then slide
	f.Fuzz(func(t *testing.T, ops []byte) {
		const procs, dst = 4, 2
		e, err := NewEngine(procs)
		if err != nil {
			t.Fatal(err)
		}
		type key struct{ src, tag int }
		model := make(map[key][]Message)
		var open []key // channels with undelivered messages, in model order
		fresh, seq, maxOpen := 1000, 0, 0
		fetch := func(k key) {
			t.Helper()
			got, err := e.Fetch(k.src, dst, k.tag)
			if err != nil {
				t.Fatalf("fetch %v: %v", k, err)
			}
			want := model[k][0]
			if got.Arrival != want.Arrival || got.Bytes != want.Bytes || got.Payload != want.Payload {
				t.Fatalf("fetch %v delivered %+v, want %+v", k, got, want)
			}
			if model[k] = model[k][1:]; len(model[k]) == 0 {
				delete(model, k)
				open = slices.DeleteFunc(open, func(o key) bool { return o == k })
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], int(ops[i+1])
			k := key{src: arg % procs, tag: arg / procs % 3}
			switch op % 4 {
			case 2: // a channel no message has used yet
				k.tag = fresh
				fresh++
				fallthrough
			case 0, 1:
				seq++
				msg := Message{Arrival: float64(seq), Bytes: seq, Payload: fmt.Sprint("m", seq)}
				if err := e.Post(k.src, dst, k.tag, msg); err != nil {
					t.Fatal(err)
				}
				if len(model[k]) == 0 {
					open = append(open, k)
				}
				model[k] = append(model[k], msg)
				maxOpen = max(maxOpen, len(open))
			case 3:
				if len(open) > 0 {
					fetch(open[arg%len(open)])
				}
			}
		}
		for len(open) > 0 {
			fetch(open[0])
		}
		b := &e.inboxes[dst]
		if n := b.pending(); n != 0 {
			t.Fatalf("%d messages left after every fetch", n)
		}
		spare := 0
		for q := b.spare; q != nil; q = q.next {
			if q.pending() != 0 || q.head != 0 {
				t.Fatalf("a spare queue holds %d messages from %d", q.pending(), q.head)
			}
			spare++
		}
		if len(b.queues) != 0 || spare != b.made || b.made > 2*maxOpen {
			t.Fatalf("%d queues open, %d spare of %d made, after at most %d channels open at once", len(b.queues), spare, b.made, maxOpen)
		}
	})
}

// settledGoroutines waits until the goroutine count stops moving (goroutines
// of earlier tests may still be exiting) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestFetchStartsNoGoroutine: a rank blocked in Fetch is one goroutine,
// its own. While P-1 ranks block in Fetch and the last looks on, the
// process runs the baseline plus P goroutines; after that rank fails the
// run, the count returns to the baseline.
func TestFetchStartsNoGoroutine(t *testing.T) {
	const procs = 8
	base := settledGoroutines()
	e, err := NewEngine(procs)
	if err != nil {
		t.Fatal(err)
	}
	errWatched := errors.New("done watching")
	run := e.Run(func(rank int) error {
		if rank > 0 {
			_, err := e.Fetch(0, rank, rank) // never posted
			return err
		}
		// The blocked ranks are the run's own goroutines; a watcher per
		// blocked fetch would show within the observation.
		for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
			if n := runtime.NumGoroutine(); n > base+procs {
				return fmt.Errorf("%d goroutines while %d ranks block in Fetch, want at most %d", n, procs-1, base+procs)
			}
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n != base+procs {
			return fmt.Errorf("%d goroutines while %d ranks block in Fetch, want %d", n, procs-1, base+procs)
		}
		return errWatched
	})
	if !errors.Is(run, errWatched) {
		t.Fatalf("run = %v, want the watching rank's error", run)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the aborted run, want the baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFetchAfterAbort: once the run is aborted, a Fetch on a channel
// never used before fails with ErrCanceled at once, while a message
// queued before the abort is still delivered.
func TestFetchAfterAbort(t *testing.T) {
	e, err := NewEngine(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Post(0, 1, 5, Message{Arrival: 2, Bytes: 8}); err != nil {
		t.Fatal(err)
	}
	e.abort()
	type result struct {
		msg Message
		err error
	}
	fetch := func(src, dst, tag int) result {
		t.Helper()
		done := make(chan result, 1)
		go func() {
			msg, err := e.Fetch(src, dst, tag)
			done <- result{msg, err}
		}()
		select {
		case r := <-done:
			return r
		case <-time.After(5 * time.Second):
			t.Fatalf("Fetch(%d, %d, %d) blocked after the abort", src, dst, tag)
			return result{}
		}
	}
	if r := fetch(2, 0, 99); !errors.Is(r.err, ErrCanceled) {
		t.Fatalf("fetch on a new channel after the abort = %+v, want ErrCanceled", r)
	}
	if r := fetch(0, 1, 5); r.err != nil || r.msg.Arrival != 2 || r.msg.Bytes != 8 {
		t.Fatalf("queued message after the abort = %+v, want it delivered", r)
	}
	if r := fetch(0, 1, 5); !errors.Is(r.err, ErrCanceled) {
		t.Fatalf("drained channel after the abort = %+v, want ErrCanceled", r)
	}
}
