package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		ID:        "i-7",
		Label:     "video",
		Policy:    "randpr",
		Seed:      0xDEADBEEFCAFE,
		Shards:    4,
		BatchSize: 64, QueueDepth: 8,
		Submitted: 1500, Processed: 1500, Batches: 24,
		AssignedTotal: 2900, Dropped: 4100,
		Weights:  []float64{1.5, 2, 0.25},
		Sizes:    []int{10, 3, 7},
		Assigned: []int32{4, 3, 0},
	}
}

// encodeSnapshot is WriteSnapshot into memory.
func encodeSnapshot(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

// snapshotsEqual compares every field, weights by their bits.
func snapshotsEqual(a, b *Snapshot) bool {
	if a.ID != b.ID || a.Label != b.Label || a.Policy != b.Policy ||
		a.Seed != b.Seed || a.Shards != b.Shards ||
		a.BatchSize != b.BatchSize || a.QueueDepth != b.QueueDepth ||
		a.Final != b.Final ||
		a.Submitted != b.Submitted || a.Processed != b.Processed ||
		a.Batches != b.Batches || a.AssignedTotal != b.AssignedTotal ||
		a.Dropped != b.Dropped ||
		len(a.Weights) != len(b.Weights) || len(a.Sizes) != len(b.Sizes) || len(a.Assigned) != len(b.Assigned) {
		return false
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) ||
			a.Sizes[i] != b.Sizes[i] || a.Assigned[i] != b.Assigned[i] {
			return false
		}
	}
	return true
}

// TestSnapshotRoundTrip pins encode→decode identity for every field.
func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	raw := encodeSnapshot(t, want)
	if len(raw) != SnapshotLen(want) {
		t.Fatalf("encoded %d bytes, SnapshotLen says %d", len(raw), SnapshotLen(want))
	}
	got, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !snapshotsEqual(got, want) {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}

	want.Final = true
	want.Label = ""
	got, err = ReadSnapshot(bytes.NewReader(encodeSnapshot(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Final || got.Label != "" {
		t.Fatalf("Final/empty-label round trip: %+v", got)
	}
}

// goldenSnapshotV1 is one version-1 OSPS frame, byte for byte as the
// layout in snapshot.go documents it; each line is one field. Files
// under ospserve -snapshot-dir were written in this layout, so a change
// to it — even one applied to encoder and decoder alike, which the
// round-trip tests cannot see — must fail here. The Final variant of
// the frame differs only in byte 5, the flags byte, which reads 0x01.
const goldenSnapshotV1 = "" +
	"4f535053" + // magic "OSPS"
	"01" + // version 1
	"00" + // flags: Final unset
	"0400" + "692d3432" + // id "i-42"
	"0400" + "65646765" + // label "edge"
	"0600" + "72616e647072" + // policy "randpr"
	"efcdab8967452301" + // seed 0x0123456789abcdef
	"02000000" + // shards 2
	"40000000" + // batch size 64
	"08000000" + // queue depth 8
	"e803000000000000" + // submitted 1000
	"e803000000000000" + // processed 1000
	"1000000000000000" + // batches 16
	"dc05000000000000" + // assigned total 1500
	"bc02000000000000" + // dropped 700
	"03000000" + // m 3
	"000000000000f83f" + "0000000000000240" + "000000000000e03f" + // weights 1.5, 2.25, 0.5
	"04000000" + "02000000" + "09000000" + // sizes 4, 2, 9
	"03000000" + "02000000" + "00000000" // assigned 3, 2, 0

// goldenSnapshot is the Snapshot goldenSnapshotV1 encodes.
func goldenSnapshot() *Snapshot {
	return &Snapshot{
		ID: "i-42", Label: "edge", Policy: "randpr",
		Seed:   0x0123456789abcdef,
		Shards: 2, BatchSize: 64, QueueDepth: 8,
		Submitted: 1000, Processed: 1000, Batches: 16,
		AssignedTotal: 1500, Dropped: 700,
		Weights:  []float64{1.5, 2.25, 0.5},
		Sizes:    []int{4, 2, 9},
		Assigned: []int32{3, 2, 0},
	}
}

// TestSnapshotGoldenV1 pins the version-1 frame layout: the checked-in
// frame, with Final unset and set, decodes to the expected Snapshot,
// and WriteSnapshot of that Snapshot reproduces the bytes exactly.
func TestSnapshotGoldenV1(t *testing.T) {
	for _, final := range []bool{false, true} {
		raw, err := hex.DecodeString(goldenSnapshotV1)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenSnapshot()
		if final {
			raw[5] = 0x01
			want.Final = true
		}
		got, err := ReadSnapshot(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("final=%v: ReadSnapshot of the golden frame: %v", final, err)
		}
		if !snapshotsEqual(got, want) {
			t.Errorf("final=%v: golden frame decoded to %+v, want %+v", final, got, want)
		}
		if enc := encodeSnapshot(t, want); !bytes.Equal(enc, raw) {
			t.Errorf("final=%v: WriteSnapshot\n got %x\nwant %x", final, enc, raw)
		}
	}
}

// TestSnapshotChunked round-trips frames whose arrays span several
// chunks, through readers that hand out one byte at a time or end with
// data and EOF together, and writers that see every chunk. It runs the
// host's codec and the per-value one big-endian hosts use, which must
// write the same bytes and read the same snapshot.
func TestSnapshotChunked(t *testing.T) {
	native := aliasable
	defer func() { aliasable = native }()
	for _, m := range []int{0, 1, snapChunk / 8, snapChunk/8 + 1, 3*snapChunk/4 + 5} {
		want := &Snapshot{ID: "i-3", Policy: "greedy-remaining", Seed: uint64(m), Shards: 2,
			Weights: make([]float64, m), Sizes: make([]int, m), Assigned: make([]int32, m)}
		for i := range want.Weights {
			want.Weights[i] = float64(i) / 3
			want.Sizes[i] = i%7 + 1
			want.Assigned[i] = int32(i % (i%7 + 1))
		}
		aliasable = native
		raw := encodeSnapshot(t, want)
		if len(raw) != SnapshotLen(want) {
			t.Fatalf("m=%d: encoded %d bytes, SnapshotLen says %d", m, len(raw), SnapshotLen(want))
		}
		for _, bulk := range []bool{native, false} {
			aliasable = bulk
			if !bytes.Equal(encodeSnapshot(t, want), raw) {
				t.Fatalf("m=%d: the per-value and the host's codec write different bytes", m)
			}
			for name, r := range map[string]io.Reader{
				"whole":    bytes.NewReader(raw),
				"one byte": iotest.OneByteReader(bytes.NewReader(raw)),
				"data+EOF": iotest.DataErrReader(bytes.NewReader(raw)),
			} {
				got, err := ReadSnapshot(r)
				if err != nil {
					t.Fatalf("m=%d %s bulk=%v: %v", m, name, bulk, err)
				}
				if !snapshotsEqual(got, want) {
					t.Fatalf("m=%d %s bulk=%v: round trip differs", m, name, bulk)
				}
				if cap(got.Weights) != m {
					t.Fatalf("m=%d %s bulk=%v: weights capacity %d, want exactly m", m, name, bulk, cap(got.Weights))
				}
			}
		}
	}
}

// TestSnapshotRejects sweeps the structural rejections.
func TestSnapshotRejects(t *testing.T) {
	good := encodeSnapshot(t, sampleSnapshot())
	// The set count m sits just before the arrays.
	mAt := len(good) - 16*len(sampleSnapshot().Weights) - 4

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"short", func(b []byte) []byte { return b[:10] }, ErrFrame},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrFrame},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }, ErrVersion},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-3] }, ErrFrame},
		{"trailing junk", func(b []byte) []byte { return append(b, 0) }, ErrFrame},
		{"string past end", func(b []byte) []byte { b[6] = 0xFF; b[7] = 0xFF; return b }, ErrFrame},
		{"trailing frame", func(b []byte) []byte { return append(b, b...) }, ErrFrame},
		{"set count past limit", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[mAt:], MaxSets+1)
			return b
		}, ErrFrame},
		{"set count overflows", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[mAt:], math.MaxUint32)
			return b
		}, ErrFrame},
		{"negative shards", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[mAt-52:], math.MaxUint32)
			return b
		}, ErrFrame},
		{"size overflows", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-8*3:], math.MaxUint32)
			return b
		}, ErrFrame},
	}
	for _, tc := range cases {
		raw := tc.mutate(append([]byte(nil), good...))
		if _, err := ReadSnapshot(bytes.NewReader(raw)); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
	}

	// Semantic restore guards: quiesce and count-range violations.
	s := sampleSnapshot()
	s.Processed = s.Submitted - 1
	if _, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, s))); !errors.Is(err, ErrFrame) {
		t.Errorf("non-quiesced snapshot accepted: %v", err)
	}
	s = sampleSnapshot()
	s.Assigned[1] = int32(s.Sizes[1]) + 1
	if _, err := ReadSnapshot(bytes.NewReader(encodeSnapshot(t, s))); !errors.Is(err, ErrFrame) {
		t.Errorf("assigned > size accepted: %v", err)
	}
}

// TestReadSnapshotPassesReaderErrors pins that an error of the reader
// itself (a body-size limit, a reset connection) comes back as is, not
// as a malformed frame.
func TestReadSnapshotPassesReaderErrors(t *testing.T) {
	boom := errors.New("boom")
	raw := encodeSnapshot(t, sampleSnapshot())
	for _, n := range []int{0, 3, len(raw) - 1, len(raw)} {
		r := io.MultiReader(bytes.NewReader(raw[:n]), iotest.ErrReader(boom))
		if _, err := ReadSnapshot(r); !errors.Is(err, boom) || errors.Is(err, ErrFrame) {
			t.Errorf("error after %d bytes: %v, want boom", n, err)
		}
	}
}

// TestReadSnapshotAllocatesWhatArrives pins the allocation bound: a
// header that claims MaxSets sets costs one chunk when nothing follows,
// and a trickle of weights costs at most twice the bytes received.
func TestReadSnapshotAllocatesWhatArrives(t *testing.T) {
	s := &Snapshot{Weights: make([]float64, 1), Sizes: []int{1}, Assigned: []int32{0}}
	raw := encodeSnapshot(t, s)
	header := raw[:len(raw)-16]
	binary.LittleEndian.PutUint32(header[len(header)-4:], MaxSets)
	for _, weightBytes := range []int{0, 1 << 20} {
		frame := append(append([]byte(nil), header...), make([]byte, weightBytes)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSnapshot(bytes.NewReader(frame))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("%d weight bytes of %d sets: err = %v, want ErrFrame", weightBytes, MaxSets, err)
		}
		limit := uint64(2*weightBytes + 2*snapChunk)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%d weight bytes of a %d-set frame allocated %d bytes, want <= %d", weightBytes, MaxSets, got, limit)
		}
	}
}

// TestWriteSnapshotError pins that the first write error is returned.
func TestWriteSnapshotError(t *testing.T) {
	boom := errors.New("boom")
	if err := WriteSnapshot(failWriter{boom}, sampleSnapshot()); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// TestSnapshotStringBound pins the panic on oversized strings — a
// programming error, not a wire condition.
func TestSnapshotStringBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("oversized label did not panic")
		}
	}()
	s := sampleSnapshot()
	s.Label = strings.Repeat("x", snapMaxStringLen+1)
	WriteSnapshot(io.Discard, s) //nolint:errcheck // panics first
}

// BenchmarkSnapshotCodec times one frame each way at the bulk
// benchmark's shape (2^18 unit-weight sets): WriteSnapshot to a
// discarding writer and ReadSnapshot from memory. -benchmem shows the
// reader allocating only the decoded arrays and their doubling.
func BenchmarkSnapshotCodec(b *testing.B) {
	const m = 1 << 18
	s := &Snapshot{Weights: make([]float64, m), Sizes: make([]int, m), Assigned: make([]int32, m)}
	for i := range s.Weights {
		s.Weights[i], s.Sizes[i] = 1, 12
	}
	raw := encodeSnapshot(b, s)
	b.Run("write", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for b.Loop() {
			if err := WriteSnapshot(io.Discard, s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := ReadSnapshot(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
