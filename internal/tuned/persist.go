package tuned

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"repro"
	"repro/internal/autotune"
)

// This file is the auxiliary persistence riding alongside the cache state
// file (StatePath): the hinted-handoff queue (StatePath+".handoff") and the
// background refinement backlog (StatePath+".refine"). Both are written by
// the same timed/shutdown flush as the cache, with the same atomic
// temp+fsync+rename discipline, and restored on boot — a crashed replica
// neither loses the writes it was holding for a down peer nor forgets the
// analytically-answered clients it owed a measured upgrade. Both files are
// best-effort state: a missing, torn or version-skewed file restores
// nothing and boot proceeds (the cache file is the source of truth; these
// only save redundant work).

// auxFormatVersion versions the two auxiliary snapshot files.
const auxFormatVersion = 1

// handoffFile is the on-disk form of the hinted-handoff queue: per peer,
// the parked cache entries in the same validated entry format as the cache
// file itself.
type handoffFile struct {
	Version int                              `json:"version"`
	Peers   map[string][]autotune.CacheEntry `json:"peers"`
}

// refineFile is the on-disk form of the refinement backlog: each job as the
// client-facing network description, so the replay path is the ordinary
// request path (validation included).
type refineFile struct {
	Version int                        `json:"version"`
	Jobs    []repro.NetworkDescription `json:"jobs"`
}

func (s *Server) handoffPath() string { return s.cfg.StatePath + ".handoff" }
func (s *Server) refinePath() string  { return s.cfg.StatePath + ".refine" }

// atomicWriteFile writes data with the cache snapshot's crash discipline:
// temp file in the same directory, fsync, rename over path.
func atomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// flushAux snapshots the handoff queue and the refinement backlog, when
// their machinery is configured.
func (s *Server) flushAux() error {
	if s.cluster != nil {
		data, err := json.Marshal(handoffFile{Version: auxFormatVersion, Peers: s.cluster.handoff.Snapshot()})
		if err != nil {
			return err
		}
		if err := atomicWriteFile(s.handoffPath(), data); err != nil {
			return err
		}
	}
	if s.refineCh != nil {
		s.refineMu.Lock()
		keys := make([]string, 0, len(s.refineJobs))
		for k := range s.refineJobs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		jobs := make([]repro.NetworkDescription, len(keys))
		for i, k := range keys {
			jobs[i] = s.refineJobs[k].describe()
		}
		s.refineMu.Unlock()
		data, err := json.Marshal(refineFile{Version: auxFormatVersion, Jobs: jobs})
		if err != nil {
			return err
		}
		if err := atomicWriteFile(s.refinePath(), data); err != nil {
			return err
		}
	}
	return nil
}

// restoreHandoff reloads parked hinted handoff from the last snapshot.
func (s *Server) restoreHandoff() {
	if s.cluster == nil {
		return
	}
	data, err := os.ReadFile(s.handoffPath())
	if err != nil {
		return
	}
	var f handoffFile
	if json.Unmarshal(data, &f) != nil || f.Version != auxFormatVersion {
		return
	}
	s.cluster.handoff.Restore(f.Peers)
}

// restoreRefineQueue re-enqueues the persisted refinement backlog through
// the ordinary enqueue path, re-validating every description — a corrupted
// or hand-edited file can drop jobs but cannot poison the queue.
func (s *Server) restoreRefineQueue() {
	if s.refineCh == nil {
		return
	}
	data, err := os.ReadFile(s.refinePath())
	if err != nil {
		return
	}
	var f refineFile
	if json.Unmarshal(data, &f) != nil || f.Version != auxFormatVersion {
		return
	}
	for _, d := range f.Jobs {
		if d.Validate() != nil {
			continue
		}
		if req, err := s.newTuneRequest(d); err == nil {
			s.enqueueRefine(req)
		}
	}
}
