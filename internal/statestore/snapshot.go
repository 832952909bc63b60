package statestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"
)

// Snapshot container framing:
//
//	magic "EFSS" | u32 version | u64 payload-len | payload | u32 crc32
//
// all little-endian; the CRC32 (IEEE) covers exactly the payload bytes.
// The version gates the payload codec: readers reject versions they do
// not know rather than guessing at field layouts. Version 2 is written.
// Version 1 is still read: it also carried each device's seen flag and
// best gateway and the tracker's best gateway, which nothing reads, so
// the decoder skips them.
const (
	snapMagic   = "EFSS"
	snapVersion = 2
	// snapHeaderLen = magic + version + payload-len
	snapHeaderLen  = 4 + 4 + 8
	snapTrailerLen = 4
	// maxSnapPayload bounds the declared payload length so a corrupt
	// header cannot drive a giant allocation (1 GiB is orders of
	// magnitude above any real shard state).
	maxSnapPayload = 1 << 30
)

// EncodeSnapshot frames st as a snapshot file image.
func EncodeSnapshot(st *State) []byte {
	var body encoder
	st.encode(&body)
	buf := make([]byte, 0, snapHeaderLen+len(body.buf)+snapTrailerLen)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(body.buf)))
	buf = append(buf, body.buf...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(body.buf))
	return buf
}

// DecodeSnapshot parses a snapshot file image.
func DecodeSnapshot(buf []byte) (*State, error) {
	if len(buf) < snapHeaderLen+snapTrailerLen {
		return nil, fmt.Errorf("statestore: snapshot too short (%d bytes)", len(buf))
	}
	if string(buf[:4]) != snapMagic {
		return nil, fmt.Errorf("statestore: snapshot magic mismatch")
	}
	version := binary.LittleEndian.Uint32(buf[4:8])
	if version != 1 && version != snapVersion {
		return nil, fmt.Errorf("statestore: snapshot version %d (want 1 or %d)", version, snapVersion)
	}
	payloadLen := binary.LittleEndian.Uint64(buf[8:16])
	if payloadLen > maxSnapPayload {
		return nil, fmt.Errorf("statestore: snapshot payload length %d exceeds limit", payloadLen)
	}
	if uint64(len(buf)) != snapHeaderLen+payloadLen+snapTrailerLen {
		return nil, fmt.Errorf("statestore: snapshot length %d does not match declared payload %d", len(buf), payloadLen)
	}
	payload := buf[snapHeaderLen : snapHeaderLen+payloadLen]
	want := binary.LittleEndian.Uint32(buf[len(buf)-snapTrailerLen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("statestore: snapshot crc mismatch (got %08x want %08x)", got, want)
	}
	return decodeState(&decoder{buf: payload, version: version})
}

// WriteSnapshot durably records st, rotates the WAL so the next segment
// starts at the first un-snapshotted sequence number, and prunes WAL
// segments and old snapshots the new one makes redundant. st.Epoch is
// assigned by the store (the snapshot's ID); st.Seq must be the last
// sequence number folded into the state — normally NextSeq()-1 after
// syncing.
func (s *Store) WriteSnapshot(st *State) error {
	start := time.Now() //eflora:nondeterminism-ok snapshot latency diagnostic only
	st.Epoch = s.nextSnapID
	img := EncodeSnapshot(st)
	path := snapPath(s.dir, s.nextSnapID)
	if err := atomicWrite(path, img); err != nil {
		return err
	}
	s.nextSnapID++
	s.snapSeq = st.Seq
	s.metrics.Snapshots++
	s.metrics.SnapshotBytes = uint64(len(img))
	s.metrics.SnapshotSeconds = time.Since(start).Seconds() //eflora:nondeterminism-ok snapshot latency diagnostic only
	s.publish()
	// Anchor the WAL: close the open segment so replay-from-snapshot
	// starts at a segment boundary, then drop whatever the snapshot made
	// redundant. Pruning failures are reported but the snapshot itself is
	// already durable.
	if err := s.rotateWAL(); err != nil {
		return err
	}
	return s.prune()
}

// atomicWrite lands data at path via temp file + fsync + rename, so a
// crash mid-write can never leave a half-written file under the final
// name.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("statestore: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("statestore: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("statestore: fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statestore: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("statestore: rename %s: %w", tmp, err)
	}
	return nil
}

// prune removes snapshots beyond the retention count and WAL segments
// every retained snapshot has fully absorbed. A segment is prunable when
// its records all carry sequence numbers at or below the OLDEST retained
// snapshot's Seq — older snapshots are kept as fallbacks, and a fallback
// is only useful with its replay tail intact.
func (s *Store) prune() error {
	segs, snaps, err := s.scan()
	if err != nil {
		return err
	}
	for len(snaps) > DefaultSnapshotKeep {
		if err := os.Remove(snaps[0].path); err != nil {
			return fmt.Errorf("statestore: %w", err)
		}
		snaps = snaps[1:]
	}
	if len(snaps) == 0 {
		return nil
	}
	oldest, err := readSnapshotSeq(snaps[0].path)
	if err != nil {
		// An undecodable retained snapshot pins nothing; leave the WAL
		// alone rather than guess.
		return nil
	}
	// A segment's records end where the next segment's begin; the last
	// segment on disk is never pruned (it may still be appended to).
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].startSeq-1 <= oldest {
			if err := os.Remove(segs[i].path); err != nil {
				return fmt.Errorf("statestore: %w", err)
			}
			continue
		}
		break
	}
	return nil
}

// readSnapshotSeq loads just the Seq envelope field of a snapshot file.
func readSnapshotSeq(path string) (uint64, error) {
	st, err := loadSnapshotFile(path)
	if err != nil {
		return 0, err
	}
	return st.Seq, nil
}

func loadSnapshotFile(path string) (*State, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	return DecodeSnapshot(buf)
}
