package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/setsystem"
	"repro/internal/workload"
)

// flatten converts elements to the engine's flat SoA layout — the shape
// DecodeBatch must reproduce exactly.
func flatten(els []setsystem.Element) (members []setsystem.SetID, offs, caps []int32) {
	offs = append(offs, 0)
	for _, el := range els {
		members = append(members, el.Members...)
		offs = append(offs, int32(len(members)))
		caps = append(caps, int32(el.Capacity))
	}
	return members, offs, caps
}

// appendBatch appends one encoded batch frame built from flat
// structure-of-arrays buffers — element i's members are
// members[offs[i]:offs[i+1]], its capacity caps[i] — the encoding
// mirror of DecodeBatch's layout, which the round-trip checks re-encode.
func appendBatch(dst []byte, members []setsystem.SetID, offs, caps []int32) []byte {
	n := len(caps)
	dst = appendBatchHeader(dst, n, len(members))
	for _, c := range caps {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
	}
	for i := 0; i < n; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(offs[i+1]-offs[i]))
	}
	for _, s := range members {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst
}

// TestBatchRoundTrip pins the frame contract: AppendElements and
// appendBatch produce the identical frame, and DecodeBatch reproduces
// the flat layout bit for bit, reusing caller storage.
func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst, err := workload.Uniform(workload.UniformConfig{M: 300, N: 500, Load: 9, MinLoad: 1, Capacity: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	els := inst.Elements
	wantMembers, wantOffs, wantCaps := flatten(els)

	frame := AppendElements(nil, els)
	if got := appendBatch(nil, wantMembers, wantOffs, wantCaps); string(got) != string(frame) {
		t.Fatalf("appendBatch and AppendElements frames differ: %d vs %d bytes", len(got), len(frame))
	}
	if len(frame) != BatchLen(len(els), len(wantMembers)) {
		t.Fatalf("frame is %d bytes, BatchLen says %d", len(frame), BatchLen(len(els), len(wantMembers)))
	}

	// Decode twice into the same storage: the second pass must not grow.
	var members []setsystem.SetID
	var offs, caps []int32
	for pass := 0; pass < 2; pass++ {
		members, offs, caps, err = DecodeBatch(frame, members[:0], offs[:0], caps[:0])
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(members) != len(wantMembers) || len(offs) != len(wantOffs) || len(caps) != len(wantCaps) {
		t.Fatalf("decoded shape %d/%d/%d, want %d/%d/%d",
			len(members), len(offs), len(caps), len(wantMembers), len(wantOffs), len(wantCaps))
	}
	for i := range wantMembers {
		if members[i] != wantMembers[i] {
			t.Fatalf("member %d = %d, want %d", i, members[i], wantMembers[i])
		}
	}
	for i := range wantOffs {
		if offs[i] != wantOffs[i] {
			t.Fatalf("off %d = %d, want %d", i, offs[i], wantOffs[i])
		}
	}
	for i := range wantCaps {
		if caps[i] != wantCaps[i] {
			t.Fatalf("cap %d = %d, want %d", i, caps[i], wantCaps[i])
		}
	}
}

// TestDecodeBatchRejects walks the rejection matrix: every structural
// corruption of a valid frame must fail with ErrFrame (or ErrVersion),
// never panic or decode garbage.
func TestDecodeBatchRejects(t *testing.T) {
	els := []setsystem.Element{
		{Members: []setsystem.SetID{0, 2, 5}, Capacity: 2},
		{Members: []setsystem.SetID{1}, Capacity: 1},
	}
	good := AppendElements(nil, els)

	corrupt := func(mut func(b []byte) []byte) []byte {
		return mut(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFrame},
		{"short header", good[:8], ErrFrame},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrFrame},
		{"future version", corrupt(func(b []byte) []byte { b[4] = 9; return b }), ErrVersion},
		{"zero count", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:], 0)
			return b
		}), ErrFrame},
		{"truncated payload", good[:len(good)-1], ErrFrame},
		{"trailing byte", append(append([]byte(nil), good...), 0), ErrFrame},
		{"count overdeclared", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[5:], 1<<30)
			return b
		}), ErrFrame},
		{"lens undershoot nmem", corrupt(func(b []byte) []byte {
			// Element 0's length 3 -> 2: the lens no longer sum to nmem.
			binary.LittleEndian.PutUint32(b[13+8:], 2)
			return b
		}), ErrFrame},
		{"lens overshoot nmem", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[13+8:], 4)
			return b
		}), ErrFrame},
		{"capacity overflows int32", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[13:], 1<<31)
			return b
		}), ErrFrame},
		{"member overflows int32", corrupt(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(b)-4:], 1<<31)
			return b
		}), ErrFrame},
	}
	for _, tc := range cases {
		if _, _, _, err := DecodeBatch(tc.data, nil, nil, nil); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestVerdictMaskRoundTrip checks the bitmask against a brute-force
// membership test over random subsets, across loads spanning byte
// boundaries.
func TestVerdictMaskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, load := range []int{1, 2, 7, 8, 9, 16, 17, 40} {
		members := make([]setsystem.SetID, load)
		for i := range members {
			members[i] = setsystem.SetID(3 * i) // ascending
		}
		for trial := 0; trial < 20; trial++ {
			var admitted []setsystem.SetID
			want := make(map[setsystem.SetID]bool)
			for _, s := range members {
				if rng.Intn(2) == 0 {
					admitted = append(admitted, s)
					want[s] = true
				}
			}
			mask := AppendVerdictMask(nil, members, admitted)
			if len(mask) != MaskLen(load) {
				t.Fatalf("load %d: mask is %d bytes, want %d", load, len(mask), MaskLen(load))
			}
			for j, s := range members {
				if MaskBit(mask, j) != want[s] {
					t.Fatalf("load %d trial %d: bit %d = %v, want %v", load, trial, j, MaskBit(mask, j), want[s])
				}
			}
			// The sparse walk must recover exactly the admitted list.
			back, err := AppendAdmitted(nil, mask, members)
			if err != nil {
				t.Fatalf("load %d trial %d: AppendAdmitted: %v", load, trial, err)
			}
			if fmt.Sprint(back) != fmt.Sprint(admitted) {
				t.Fatalf("load %d trial %d: AppendAdmitted = %v, want %v", load, trial, back, admitted)
			}
		}
	}
}

// TestAppendAdmittedPaddingBit pins the corruption check: a set bit in
// the mask's padding region (past the member count) is a frame error,
// not a silent skip or a panic.
func TestAppendAdmittedPaddingBit(t *testing.T) {
	members := []setsystem.SetID{2, 4, 6} // 3 members, 5 padding bits
	mask := AppendVerdictMask(nil, members, members[1:2])
	mask[0] |= 1 << 6 // corrupt a padding bit
	if _, err := AppendAdmitted(nil, mask, members); !errors.Is(err, ErrFrame) {
		t.Fatalf("padding bit set: err = %v, want ErrFrame", err)
	}
}

// TestVerdictsFrame pins the header round trip and MaskAt's walk,
// including the rejection of truncated payloads.
func TestVerdictsFrame(t *testing.T) {
	loads := []int{3, 9, 1}
	frame := AppendVerdictsHeader(nil, len(loads))
	for i, load := range loads {
		members := make([]setsystem.SetID, load)
		for j := range members {
			members[j] = setsystem.SetID(j)
		}
		// Admit member i%load only.
		frame = AppendVerdictMask(frame, members, members[i%load:i%load+1])
	}

	payload, count, err := DecodeVerdicts(frame)
	if err != nil {
		t.Fatal(err)
	}
	if count != len(loads) {
		t.Fatalf("count = %d, want %d", count, len(loads))
	}
	for i, load := range loads {
		var mask []byte
		mask, payload, err = MaskAt(payload, load)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < load; j++ {
			if got, want := MaskBit(mask, j), j == i%load; got != want {
				t.Fatalf("element %d bit %d = %v, want %v", i, j, got, want)
			}
		}
	}
	if len(payload) != 0 {
		t.Fatalf("%d payload bytes left after the last element", len(payload))
	}

	if _, _, err := DecodeVerdicts(frame[:4]); !errors.Is(err, ErrFrame) {
		t.Errorf("short frame: err = %v, want ErrFrame", err)
	}
	bad := append([]byte(nil), frame...)
	bad[4] = 2
	if _, _, err := DecodeVerdicts(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
	if _, _, err := MaskAt(nil, 9); !errors.Is(err, ErrFrame) {
		t.Errorf("truncated masks: err = %v, want ErrFrame", err)
	}
}

// TestAppendDecodeSteadyStateAllocs asserts the codec itself is
// allocation-free once buffers are warm — the property the serve ingest
// path builds on.
func TestAppendDecodeSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst, err := workload.Uniform(workload.UniformConfig{M: 200, N: 256, Load: 8, Capacity: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	els := inst.Elements
	frame := AppendElements(nil, els)

	var members []setsystem.SetID
	var offs, caps []int32
	members, offs, caps, err = DecodeBatch(frame, members, offs, caps) // warm
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), frame...)
	allocs := testing.AllocsPerRun(20, func() {
		buf = AppendElements(buf[:0], els)
		var derr error
		members, offs, caps, derr = DecodeBatch(buf, members[:0], offs[:0], caps[:0])
		if derr != nil {
			t.Fatal(derr)
		}
	})
	if allocs != 0 {
		t.Errorf("warm encode+decode of a %d-element batch allocates %v times, want 0", len(els), allocs)
	}
}

// TestPeekBatchCount pins the pre-decode count peek servers use to
// enforce batch limits before filling long-lived buffers.
func TestPeekBatchCount(t *testing.T) {
	els := []setsystem.Element{
		{Members: []setsystem.SetID{0, 2}, Capacity: 1},
		{Members: []setsystem.SetID{1}, Capacity: 1},
	}
	frame := AppendElements(nil, els)
	if n, ok := PeekBatchCount(frame); !ok || n != 2 {
		t.Errorf("PeekBatchCount = %d, %v, want 2, true", n, ok)
	}
	if _, ok := PeekBatchCount(frame[:8]); ok {
		t.Error("short header peeked")
	}
	bad := append([]byte(nil), frame...)
	bad[0] = 'X'
	if _, ok := PeekBatchCount(bad); ok {
		t.Error("bad magic peeked")
	}
	huge := append([]byte(nil), frame...)
	binary.LittleEndian.PutUint32(huge[5:], 1<<31+5)
	if n, ok := PeekBatchCount(huge); !ok || n <= 0 {
		t.Errorf("overflowing count peeked as %d, %v — want a positive clamp", n, ok)
	}
}
