package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Snapshot frame ("OSPS") — an instance's up-front information and its
// recoverable state. The service sends it in three places: a fresh
// registration (empty ID, zero counters), a snapshot export, and a
// restore. A drain answers with the smaller result frame of result.go.
//
// Because every admission policy is pure in (Info, seed), a replica can
// rebuild the policy's frozen decision state from scratch; the only
// run-state an instance accumulates is its per-set assigned counters
// (plain integer sums that commute across shards) and the stream
// counters. A snapshot therefore carries configuration + Info + counts
// — a few dozen bytes plus 16 bytes per set — and restoring it onto a
// fresh engine is bit-for-bit exact: the restored engine's final drain
// equals the uninterrupted serial oracle.
//
// All integers little-endian; strings are uint16-length-prefixed UTF-8:
//
//	offset  size  field
//	0       4     magic "OSPS"
//	4       1     version (1)
//	5       1     flags — bit0: Final (drained; restore as terminal)
//	6       2+len id      — instance identifier ("" = register fresh)
//	...     2+len label   — metrics label ("" allowed)
//	...     2+len policy  — admission policy name ("" = server default)
//	...     8     seed
//	...     4     shards      — resolved engine sizing
//	...     4     batch size
//	...     4     queue depth
//	...     8     submitted   — stream counters at checkpoint; submitted
//	...     8     processed     always equals processed (the checkpoint
//	...     8     batches       quiesces the engine first)
//	...     8     assigned total
//	...     8     dropped
//	...     4     m — number of sets, at most MaxSets
//	...     8m    weights  — float64 bits
//	...     4m    sizes    — declared set sizes
//	...     4m    assigned — per-set assigned counts (the run state)
//
// A frame's length is fully determined by its header and the three
// length prefixes, and a frame is the whole of its reader: a short
// frame and trailing bytes are both malformed.
//
// WriteSnapshot streams the three arrays through one fixed chunk
// (snapChunk bytes), and ReadSnapshot reads them through it or straight
// into the decoded arrays, so neither side ever holds an encoded frame
// whole. On a little-endian host the weights and counts cross as bytes,
// with no per-value work; the sizes (int in memory, uint32 on the wire)
// are converted a chunk at a time. The reader trusts the header's m
// only as far as the bytes that back it: a header claiming MaxSets sets
// followed by nothing costs one chunk, not 16·MaxSets bytes.

// ContentTypeSnapshot marks an HTTP body as a binary snapshot frame —
// accepted by POST /v1/instances (register or restore) and returned by
// POST /v1/instances/{id}/snapshot.
const ContentTypeSnapshot = "application/x-osp-snapshot"

// SnapshotVersion is the snapshot frame version this package encodes
// and accepts.
const SnapshotVersion = 1

// MaxSets caps a snapshot frame's set count m. ReadSnapshot rejects a
// larger m from the header, before reading any array; the service
// applies the same cap to JSON registrations.
const MaxSets = 1 << 24

var magicSnapshot = [4]byte{'O', 'S', 'P', 'S'}

const (
	snapFlagFinal    = 1 << 0
	snapScalarLen    = 8 + 3*4 + 5*8 + 4 // seed through m
	snapFixedLen     = 4 + 1 + 1 + snapScalarLen
	snapMaxStringLen = math.MaxUint16
	// snapChunk is the buffer both directions move the arrays through; a
	// string (at most snapMaxStringLen bytes) also fits.
	snapChunk = 64 << 10
)

// Snapshot is the decoded form of one instance snapshot frame.
type Snapshot struct {
	// ID is the instance identifier the snapshot was taken under; restore
	// reuses it so clients resume against the same URL. A registration
	// frame leaves it empty.
	ID string
	// Label tags the instance's metrics series.
	Label string
	// Policy names the admission policy ("" = server default at restore).
	Policy string
	// Seed is the policy seed — with Info, the whole decision state.
	Seed uint64
	// Shards, BatchSize, QueueDepth are the resolved engine sizing.
	Shards, BatchSize, QueueDepth int
	// Final marks a drained instance: restore re-derives its terminal
	// Result from the counts instead of reopening the stream.
	Final bool
	// Submitted, Processed, Batches, AssignedTotal, Dropped are the
	// stream counters at checkpoint (Submitted == Processed: the
	// checkpoint quiesces in-flight batches first).
	Submitted, Processed, Batches, AssignedTotal, Dropped uint64
	// Weights and Sizes are the instance's up-front information.
	Weights []float64
	Sizes   []int
	// Assigned is the per-set assigned count — the accumulated run state
	// a restored engine resumes from.
	Assigned []int32
}

// SnapshotLen returns the encoded byte length of a snapshot frame.
func SnapshotLen(s *Snapshot) int {
	return snapFixedLen + 2 + len(s.ID) + 2 + len(s.Label) + 2 + len(s.Policy) + 16*len(s.Weights)
}

// WriteSnapshot encodes one snapshot frame to w, moving the arrays
// through a fixed chunk; it returns the first write error. Snapshots
// with mismatched array lengths or oversized strings are a programming
// error and panic.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	m := len(s.Weights)
	if len(s.Sizes) != m || len(s.Assigned) != m {
		panic(fmt.Sprintf("wire: snapshot arrays disagree: %d weights, %d sizes, %d assigned", m, len(s.Sizes), len(s.Assigned)))
	}
	var flags byte
	if s.Final {
		flags |= snapFlagFinal
	}
	buf := make([]byte, 0, snapChunk)
	buf = append(buf, magicSnapshot[:]...)
	buf = append(buf, SnapshotVersion, flags)
	sw := snapWriter{w: w, buf: buf}
	sw.putString(s.ID)
	sw.putString(s.Label)
	sw.putString(s.Policy)
	sw.room(snapScalarLen)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, s.Seed)
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, uint32(s.Shards))
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, uint32(s.BatchSize))
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, uint32(s.QueueDepth))
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, s.Submitted)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, s.Processed)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, s.Batches)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, s.AssignedTotal)
	sw.buf = binary.LittleEndian.AppendUint64(sw.buf, s.Dropped)
	sw.buf = binary.LittleEndian.AppendUint32(sw.buf, uint32(m))
	if aliasable {
		sw.putRaw(leBytes(s.Weights))
	} else {
		for _, x := range s.Weights {
			sw.room(8)
			sw.buf = binary.LittleEndian.AppendUint64(sw.buf, math.Float64bits(x))
		}
	}
	for sizes := s.Sizes; len(sizes) > 0; {
		sw.room(4)
		k := min(len(sizes), (cap(sw.buf)-len(sw.buf))/4)
		out := sw.buf[len(sw.buf) : len(sw.buf)+4*k]
		for i, x := range sizes[:k] {
			binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
		}
		sw.buf, sizes = sw.buf[:len(sw.buf)+4*k], sizes[k:]
	}
	putInt32s(&sw, s.Assigned)
	sw.flush()
	return sw.err
}

// putInt32s copies s through the chunk as little-endian uint32s: as
// bytes on a little-endian host, value by value on any other.
func putInt32s[T ~int32](sw *snapWriter, s []T) {
	if aliasable {
		sw.putRaw(leBytes(s))
		return
	}
	for _, x := range s {
		sw.room(4)
		sw.buf = binary.LittleEndian.AppendUint32(sw.buf, uint32(x))
	}
}

// snapWriter is WriteSnapshot's chunk: values are appended to buf, which
// goes out whenever the next value would not fit. After a write error
// the chunk keeps being reused and nothing more is written.
type snapWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (sw *snapWriter) room(n int) {
	if len(sw.buf)+n > cap(sw.buf) {
		sw.flush()
	}
}

func (sw *snapWriter) flush() {
	if sw.err == nil && len(sw.buf) > 0 {
		_, sw.err = sw.w.Write(sw.buf)
	}
	sw.buf = sw.buf[:0]
}

// putRaw copies b through the chunk, sending the chunk each time it
// fills.
func (sw *snapWriter) putRaw(b []byte) {
	for len(b) > 0 {
		sw.room(1)
		n := copy(sw.buf[len(sw.buf):cap(sw.buf)], b)
		sw.buf, b = sw.buf[:len(sw.buf)+n], b[n:]
	}
}

func (sw *snapWriter) putString(s string) {
	if len(s) > snapMaxStringLen {
		panic(fmt.Sprintf("wire: snapshot string %d bytes, max %d", len(s), snapMaxStringLen))
	}
	sw.room(2 + len(s))
	sw.buf = binary.LittleEndian.AppendUint16(sw.buf, uint16(len(s)))
	sw.buf = append(sw.buf, s...)
}

// ReadSnapshot reads one snapshot frame from r, which it reads to EOF:
// the frame must be the whole of r. The frame is validated structurally
// — magic, version, exact length, set count at most MaxSets,
// non-negative sizing, and the restore invariants (Submitted ==
// Processed, per-set sizes and assigned counts within range) — so a
// decoded snapshot is safe to hand to the engine's restore path.
// Semantic Info validation (positive sizes, finite weights) remains
// with the registration layer, which applies the same checks to frames
// as to JSON registrations.
//
// Malformed frames, short ones included, fail with ErrFrame or
// ErrVersion; any other error is r's own (a body-size limit, say).
//
// Memory follows the bytes that arrive, not the header's m: the
// weights grow by doubling as their chunks come in — a doubling waits
// for a chunk that needs it, and the rest of its capacity is then read
// in place — and the sizes and counts are allocated whole only once all
// 8m weight bytes are in — so the arrays never take more than twice the
// array bytes received.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	sr := snapReader{r: r, buf: make([]byte, snapChunk), frame: "snapshot"}
	b, err := sr.take(6, "header")
	if err != nil {
		return nil, err
	}
	if [4]byte(b[:4]) != magicSnapshot {
		return nil, fmt.Errorf("%w: bad magic %q", ErrFrame, b[:4])
	}
	if b[4] != SnapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this server speaks %d", ErrVersion, b[4], SnapshotVersion)
	}
	s := &Snapshot{Final: b[5]&snapFlagFinal != 0}
	if s.ID, err = sr.takeString("id"); err != nil {
		return nil, err
	}
	if s.Label, err = sr.takeString("label"); err != nil {
		return nil, err
	}
	if s.Policy, err = sr.takeString("policy"); err != nil {
		return nil, err
	}
	if b, err = sr.take(snapScalarLen, "counters"); err != nil {
		return nil, err
	}
	s.Seed = binary.LittleEndian.Uint64(b)
	s.Shards = int(int32(binary.LittleEndian.Uint32(b[8:])))
	s.BatchSize = int(int32(binary.LittleEndian.Uint32(b[12:])))
	s.QueueDepth = int(int32(binary.LittleEndian.Uint32(b[16:])))
	s.Submitted = binary.LittleEndian.Uint64(b[20:])
	s.Processed = binary.LittleEndian.Uint64(b[28:])
	s.Batches = binary.LittleEndian.Uint64(b[36:])
	s.AssignedTotal = binary.LittleEndian.Uint64(b[44:])
	s.Dropped = binary.LittleEndian.Uint64(b[52:])
	m64 := binary.LittleEndian.Uint32(b[60:])
	// MaxSets < MaxInt32, so this also rules out a count that overflows.
	if m64 > MaxSets {
		return nil, fmt.Errorf("%w: snapshot set count %d exceeds limit %d", ErrFrame, m64, MaxSets)
	}
	m := int(m64)
	if s.Shards < 0 || s.BatchSize < 0 || s.QueueDepth < 0 {
		return nil, fmt.Errorf("%w: negative engine sizing", ErrFrame)
	}
	if s.Submitted != s.Processed {
		return nil, fmt.Errorf("%w: snapshot not quiesced: submitted %d, processed %d", ErrFrame, s.Submitted, s.Processed)
	}

	if err := readValues(&sr, &s.Weights, m, "weights", float64LE); err != nil {
		return nil, err
	}
	// All 8m weight bytes are in: 8m bytes of sizes and 4m of counts now
	// stay within twice what arrived.
	s.Sizes = make([]int, m)
	for i := 0; i < m; {
		if b, err = sr.chunk(m-i, 4, "sizes"); err != nil {
			return nil, err
		}
		sizes := s.Sizes[i : i+len(b)/4]
		for j := range sizes {
			v := binary.LittleEndian.Uint32(b[4*j:])
			if v > math.MaxInt32 {
				return nil, fmt.Errorf("%w: set %d size %d overflows int32", ErrFrame, i+j, v)
			}
			sizes[j] = int(v)
		}
		i += len(sizes)
	}
	s.Assigned = make([]int32, m)
	if aliasable {
		if err := sr.fill(leBytes(s.Assigned), "assigned counts"); err != nil {
			return nil, err
		}
	} else {
		for i := 0; i < m; {
			if b, err = sr.chunk(m-i, 4, "assigned counts"); err != nil {
				return nil, err
			}
			counts := s.Assigned[i : i+len(b)/4]
			for j := range counts {
				counts[j] = int32(binary.LittleEndian.Uint32(b[4*j:]))
			}
			i += len(counts)
		}
	}
	for i, v := range s.Assigned {
		if v < 0 {
			return nil, fmt.Errorf("%w: set %d assigned count %d overflows int32", ErrFrame, i, uint32(v))
		}
		if int(v) > s.Sizes[i] {
			return nil, fmt.Errorf("%w: set %d assigned %d of %d elements", ErrFrame, i, v, s.Sizes[i])
		}
	}

	if err := sr.end(m); err != nil {
		return nil, err
	}
	return s, nil
}

// snapReader is the frame readers' chunk: every field and array run is
// read into buf, so a frame never sits in memory whole. frame names the
// frame in errors.
type snapReader struct {
	r     io.Reader
	buf   []byte
	frame string
}

// take reads the next n bytes (n <= len(buf)) of field what.
func (sr *snapReader) take(n int, what string) ([]byte, error) {
	b := sr.buf[:n]
	if err := sr.fill(b, what); err != nil {
		return nil, err
	}
	return b, nil
}

// fill reads the next len(b) bytes of field what into b.
func (sr *snapReader) fill(b []byte, what string) error {
	if _, err := io.ReadFull(sr.r, b); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("%w: %s truncated in %s", ErrFrame, sr.frame, what)
		}
		return err
	}
	return nil
}

// chunk reads the next run of an array with left values of width bytes
// still to come: as many whole values as fit in the buffer.
func (sr *snapReader) chunk(left, width int, what string) ([]byte, error) {
	return sr.take(min(left, len(sr.buf)/width)*width, what)
}

// readValues reads n little-endian values of T into *dst, dec decoding
// one of them (the per-value path of hosts that are not little-endian).
// Memory follows the bytes that arrive, not n: the array grows by
// doubling as its chunks come in — a doubling waits for a chunk that
// needs it, and the rest of its capacity is then read in place — so it
// never takes more than twice the bytes received, and ends at
// capacity n.
//
// It grows *dst, a field of the decoded frame, rather than a local
// slice: a collection that starts mid-read then still marks the array
// a doubling replaced, so the pacer sizes the next cycle by all the
// read allocated. Growing a local slice raised bulk's per-round server
// peak RSS by 0.6 MB (DESIGN §17).
func readValues[T ~int32 | ~float64](sr *snapReader, dst *[]T, n int, what string, dec func([]byte) T) error {
	width := int(unsafe.Sizeof(T(0)))
	for len(*dst) < n {
		s := *dst
		if spare := s[len(s):cap(s)]; aliasable && len(spare) > 0 {
			if err := sr.fill(leBytes(spare), what); err != nil {
				return err
			}
			*dst = s[:cap(s)]
			continue
		}
		b, err := sr.chunk(n-len(s), width, what)
		if err != nil {
			return err
		}
		if k := len(s) + len(b)/width; k > cap(s) {
			// Double, but never past the values received or past n.
			s = make([]T, len(s), min(max(2*cap(s), k), n))
			copy(s, *dst)
			*dst = s
		}
		if aliasable {
			k := len(s)
			*dst = s[:k+len(b)/width]
			copy(leBytes((*dst)[k:]), b)
			continue
		}
		for ; len(b) > 0; b = b[width:] {
			*dst = append(*dst, dec(b))
		}
	}
	return nil
}

func float64LE(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func int32LE[T ~int32](b []byte) T { return T(binary.LittleEndian.Uint32(b)) }

// end reads r to EOF, which must come right after the frame's m sets.
func (sr *snapReader) end(m int) error {
	switch n, err := io.ReadFull(sr.r, sr.buf[:1]); {
	case n > 0:
		return fmt.Errorf("%w: trailing bytes after a %d-set %s", ErrFrame, m, sr.frame)
	case err != io.EOF:
		return err
	}
	return nil
}

func (sr *snapReader) takeString(field string) (string, error) {
	b, err := sr.take(2, field+" length")
	if err != nil {
		return "", err
	}
	if b, err = sr.take(int(binary.LittleEndian.Uint16(b)), field); err != nil {
		return "", err
	}
	return string(b), nil
}
