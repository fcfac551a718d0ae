package daemon

import (
	"parclust"
	"parclust/internal/registry"
)

// This file wires the snapshot store (internal/store) into the serving
// loop: uploads persist a cold snapshot, pressure evictions spill the warm
// stage set, and queries against a non-resident dataset lazily reload the
// snapshot instead of 404ing. Every path is inert when Config.DataDir is
// unset (s.st == nil).

// loadFlight coalesces concurrent cold loads for one dataset name: the
// first miss decodes the snapshot, everyone else waits on done.
type loadFlight struct {
	done chan struct{}
	d    *dataset
	err  error
}

// coldLoad brings a snapshotted dataset back into service. The leader
// decodes the snapshot and offers it to the registry; followers block
// until the leader finishes and then pin the admitted entry. Admission is
// best-effort — if the registry cannot take the dataset (budget exhausted
// by pinned entries, or it was evicted again immediately), the query is
// still served from the decoded copy with a no-op release.
func (s *Server) coldLoad(name string) (*dataset, func(), error) {
	s.loadMu.Lock()
	if f, ok := s.loading[name]; ok {
		s.loadMu.Unlock()
		<-f.done
		if h, ok := s.reg.Acquire(name); ok {
			return h.Value(), h.Release, nil
		}
		if f.err != nil {
			return nil, nil, f.err
		}
		return f.d, func() {}, nil
	}
	// Close the gap where the previous leader admitted the dataset between
	// our registry miss and taking loadMu — without this, every racer
	// would decode its own copy.
	if h, ok := s.reg.Acquire(name); ok {
		s.loadMu.Unlock()
		return h.Value(), h.Release, nil
	}
	f := &loadFlight{done: make(chan struct{})}
	s.loading[name] = f
	s.loadMu.Unlock()

	f.d, f.err = s.loadSnapshot(name)
	if f.err == nil {
		// An admission failure is not a load failure: the decoded dataset
		// still serves this query below.
		_ = s.reg.Put(name, f.d, f.d.idx.ApproxBytes())
	}
	s.loadMu.Lock()
	delete(s.loading, name)
	s.loadMu.Unlock()
	close(f.done)

	if f.err != nil {
		return nil, nil, f.err
	}
	if h, ok := s.reg.Acquire(name); ok {
		return h.Value(), h.Release, nil
	}
	return f.d, func() {}, nil
}

// loadSnapshot decodes name's snapshot file into a dataset.
func (s *Server) loadSnapshot(name string) (*dataset, error) {
	f, err := s.st.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	idx, det, err := parclust.ReadSnapshotDetails(f)
	if err != nil {
		s.loadFails.Add(1)
		return nil, err
	}
	s.installGate(idx)
	s.loads.Add(1)
	return &dataset{name: name, metric: det.Metric, idx: idx}, nil
}

// onRelease is the registry eviction hook (set only when spilling is on).
// A pressure eviction spills the dataset's warm stage set to disk; user
// deletions and upload replacements manage their snapshot files at the
// request site, so other causes are ignored. The registry guarantees the
// callback runs with no registry locks held, so the disk write here only
// slows the evicting request, never blocks the registry.
func (s *Server) onRelease(key string, d *dataset, cause registry.ReleaseCause) {
	if cause != registry.CausePressure {
		return
	}
	if err := s.persist(d); err == nil {
		s.spills.Add(1)
	}
}

// persist writes d's snapshot unless the copy on disk is already current:
// same point-set content hash and at least as many stage chunks. The
// staleness check makes repeated spill/reload cycles of an unchanged
// dataset write the file once. A Dirty index is unconditionally stale —
// its signature still describes the pre-mutation base points, so the hash
// comparison would wrongly skip the write (WriteSnapshot compacts, making
// the written snapshot carry the live set).
func (s *Server) persist(d *dataset) error {
	sig := d.idx.SnapshotSignature()
	if hdr, err := s.st.ReadHeaderFile(d.name); err == nil && !d.idx.Dirty() &&
		hdr.ContentHash == sig.ContentHash && len(hdr.Chunks) >= sig.Chunks {
		return nil
	}
	_, err := s.st.Write(d.name, d.idx.WriteSnapshot)
	return err
}

// PersistAll snapshots every resident dataset (stale-aware), for graceful
// shutdown: the next daemon start serves the same datasets warm. Returns
// how many datasets are durable on disk and the first write error.
func (s *Server) PersistAll() (int, error) {
	if s.st == nil {
		return 0, nil
	}
	var firstErr error
	n := 0
	for _, key := range s.reg.Keys() {
		h, ok := s.reg.Peek(key)
		if !ok {
			continue
		}
		err := s.persist(h.Value())
		h.Release()
		if err == nil {
			n++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return n, firstErr
}

// storeJSON is the "store" section of /v1/stats.
type storeJSON struct {
	Enabled   bool  `json:"enabled"`
	Spill     bool  `json:"spill"`
	Snapshots int   `json:"snapshots"`
	DiskBytes int64 `json:"disk_bytes"`
	Spills    int64 `json:"spills"`
	Loads     int64 `json:"loads"`
	LoadFails int64 `json:"load_failures"`
}

func (s *Server) storeStats() storeJSON {
	out := storeJSON{Enabled: s.st != nil, Spill: s.cfg.Spill}
	if s.st == nil {
		return out
	}
	out.Snapshots, out.DiskBytes = s.st.DiskStats()
	out.Spills = s.spills.Load()
	out.Loads = s.loads.Load()
	out.LoadFails = s.loadFails.Load()
	return out
}
