package serve

import (
	"net/http"
	"sync"

	"loadimb/internal/monitor"
	"loadimb/internal/tracefmt"
)

// DeltaContentType is the media type of /delta response bodies (a LIFP
// document, see internal/tracefmt).
const DeltaContentType = "application/vnd.loadimb.delta"

// deltaRetain is how many past generations the /delta endpoint keeps per
// source. Each retained generation is a reference to an already-built
// immutable snapshot (copy-on-write under the collector), so the cost is
// a map entry, not a cube copy; the bound is what matters — a scraper
// that falls further behind than this gets a full document instead of a
// delta, it is never wrong, just bigger.
const deltaRetain = 8

// deltaFrames bounds the memoized encoded documents. Every concurrent
// scraper at the same lag shares one encoding; distinct lags encode once
// each and the oldest memo is dropped past the cap.
const deltaFrames = 16

// DeltaServer serves the binary LIFP snapshot-transfer endpoint. A
// client names the state it holds with ?since=b<boot-hex>-g<gen> (its
// ETag, unquoted); the server answers
//
//	304                client state is current (cheapest poll)
//	200 delta doc      the named generation is retained: only what
//	                   changed since then is on the wire
//	200 full doc       unknown/forgotten generation, other boot
//	                   incarnation, or no ?since — a complete snapshot
//
// Restart safety falls out of the boot nonce: after the publisher
// restarts, no ?since from the previous incarnation matches, so the
// client is forced through a full resync and can never merge deltas
// across the restart. Per-client cost is zero — the server keeps a small
// shared ring of recent generations and memoized frames, not per-client
// state, so ten thousand scrapers cost the same as one.
type DeltaServer struct {
	src Source

	mu       sync.Mutex
	boot     uint64
	retained map[uint64]*tracefmt.DeltaState // recent generations, this boot
	order    []uint64                        // retained insertion order (ascending gens)
	frames   map[[2]uint64][]byte            // (fromGen, toGen) -> encoded doc
	frameSeq [][2]uint64                     // frames insertion order
}

// NewDeltaServer returns the /delta handler for a snapshot source.
func NewDeltaServer(src Source) *DeltaServer {
	return &DeltaServer{src: src}
}

// state extracts the transferable part of a snapshot.
func deltaState(snap *monitor.Snapshot) *tracefmt.DeltaState {
	return &tracefmt.DeltaState{
		Boot:   snap.Boot,
		Gen:    snap.Gen,
		Cube:   snap.Cube,
		Series: snap.Series,
	}
}

// retain records the state under its generation, evicting the oldest
// past the cap. Caller holds s.mu.
func (s *DeltaServer) retain(cur *tracefmt.DeltaState) {
	if s.boot != cur.Boot {
		// New publisher incarnation: state from the old boot must never
		// seed a delta.
		s.boot = cur.Boot
		s.retained = nil
		s.order = nil
		s.frames = nil
		s.frameSeq = nil
	}
	if s.retained == nil {
		s.retained = make(map[uint64]*tracefmt.DeltaState, deltaRetain)
	}
	if _, ok := s.retained[cur.Gen]; ok {
		return
	}
	s.retained[cur.Gen] = cur
	s.order = append(s.order, cur.Gen)
	for len(s.order) > deltaRetain {
		delete(s.retained, s.order[0])
		s.order = s.order[1:]
	}
}

// frame returns the memoized encoding for (from, to), building it with
// encode on a miss. Caller holds s.mu.
func (s *DeltaServer) frame(from, to uint64, encode func() ([]byte, error)) ([]byte, error) {
	key := [2]uint64{from, to}
	if doc, ok := s.frames[key]; ok {
		return doc, nil
	}
	doc, err := encode()
	if err != nil {
		return nil, err
	}
	if s.frames == nil {
		s.frames = make(map[[2]uint64][]byte, deltaFrames)
	}
	s.frames[key] = doc
	s.frameSeq = append(s.frameSeq, key)
	for len(s.frameSeq) > deltaFrames {
		delete(s.frames, s.frameSeq[0])
		s.frameSeq = s.frameSeq[1:]
	}
	return doc, nil
}

func (s *DeltaServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	snap := s.src.Snapshot()
	cur := deltaState(snap)

	// A snapshot without a boot nonce (hand-built test sources) cannot be
	// identified across requests: serve a one-off full document.
	if cur.Boot == 0 {
		doc, err := tracefmt.EncodeSnapshotFull(cur)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", DeltaContentType)
		_, _ = w.Write(doc)
		return
	}

	// A malformed ?since= is treated as a missing one: full document.
	sinceBoot, sinceGen, haveSince := tracefmt.ParseSnapshotTag(r.URL.Query().Get("since"))
	if haveSince && sinceBoot == cur.Boot && sinceGen == cur.Gen {
		w.Header().Set("ETag", snap.ETag())
		w.WriteHeader(http.StatusNotModified)
		return
	}

	s.mu.Lock()
	s.retain(cur)
	var doc []byte
	var err error
	if haveSince && sinceBoot == s.boot && sinceGen < cur.Gen {
		if prev, ok := s.retained[sinceGen]; ok {
			doc, err = s.frame(sinceGen, cur.Gen, func() ([]byte, error) {
				return tracefmt.EncodeSnapshotDelta(prev, cur)
			})
		}
	}
	if doc == nil && err == nil {
		// Unknown base (or none): full document, memoized under the
		// impossible from-gen ^0 so concurrent cold scrapers share it.
		doc, err = s.frame(^uint64(0), cur.Gen, func() ([]byte, error) {
			return tracefmt.EncodeSnapshotFull(cur)
		})
	}
	s.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", DeltaContentType)
	w.Header().Set("ETag", snap.ETag())
	_, _ = w.Write(doc)
}
