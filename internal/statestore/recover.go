package statestore

import "fmt"

// Recovered is the outcome of Recover: the newest loadable snapshot (nil
// when the directory holds none) plus the WAL tail to replay on top of
// it, with accounting of what was skipped or discarded along the way.
type Recovered struct {
	// Snapshot is the loaded state, nil for a cold start.
	Snapshot *State
	// Tail holds the WAL records with sequence numbers above the
	// snapshot's Seq (all records on a cold start), in replay order.
	Tail []WALRecord
	// SnapshotsSkipped counts snapshot files that failed validation
	// before one loaded; DiscardedBytes the torn-tail bytes truncated
	// when the store was opened.
	SnapshotsSkipped int
	DiscardedBytes   uint64
}

// Recover assembles the store's restart state: newest snapshot that
// decodes (CRC-verified, falling back to older ones and counting the
// skips), plus every WAL record past that snapshot's sequence number.
// Gaps in the replayed sequence range are errors — a missing middle
// segment means the directory was tampered with or mis-pruned, and
// replaying around a hole would silently diverge from the pre-crash
// state.
func (s *Store) Recover() (*Recovered, error) {
	segs, snaps, err := s.scan()
	if err != nil {
		return nil, err
	}
	out := &Recovered{DiscardedBytes: s.repairDiscardedBytes}
	// Newest decodable snapshot wins.
	for i := len(snaps) - 1; i >= 0; i-- {
		st, err := loadSnapshotFile(snaps[i].path)
		if err != nil {
			out.SnapshotsSkipped++
			continue
		}
		out.Snapshot = st
		break
	}
	var afterSeq uint64 // replay records with seq > afterSeq
	if out.Snapshot != nil {
		afterSeq = out.Snapshot.Seq
	}
	wantSeq := afterSeq + 1
	for i, sf := range segs {
		if i+1 < len(segs) && segs[i+1].startSeq-1 <= afterSeq {
			continue // entire segment absorbed by the snapshot
		}
		recs, _, err := readSegment(sf, i == len(segs)-1)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.Seq <= afterSeq {
				continue
			}
			if r.Seq != wantSeq {
				return nil, fmt.Errorf("statestore: recovery gap: have seq %d, want %d", r.Seq, wantSeq)
			}
			out.Tail = append(out.Tail, r)
			wantSeq++
		}
	}
	s.metrics.RecoveryReplayed = uint64(len(out.Tail))
	s.metrics.RecoverySnapshotsSkipped = uint64(out.SnapshotsSkipped)
	if out.Snapshot != nil {
		s.snapSeq = out.Snapshot.Seq
		if s.nextSeq <= out.Snapshot.Seq {
			// Every WAL record the snapshot absorbed was pruned; resume
			// numbering after the snapshot so the sequence stays monotonic.
			s.nextSeq = out.Snapshot.Seq + 1
		}
	}
	s.publish()
	return out, nil
}
