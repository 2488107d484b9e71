package wire

import (
	"encoding/binary"
	"unsafe"

	"repro/internal/setsystem"
)

// The zero-copy decode path. A batch frame's caps and members sections
// are arrays of little-endian uint32 values, and setsystem.SetID is an
// int32 — so on a little-endian platform, when the payload sits in
// memory such that those sections start on 4-byte boundaries, "decoding"
// them is a reinterpreting cast, not a copy. Only the offs array (prefix
// sums of the lens section) must actually be computed, and that single
// O(n) pass doubles as the lens validation every decode needs anyway.
//
// The alignment precondition is under the reader's control: the caps
// section starts batchHeaderLen (13) bytes into the payload, so a reader
// that positions the payload start at address ≡ 3 (mod 4) — see
// BatchAliasShift — gets caps at a 4-byte boundary, and members
// (batchHeaderLen+8n, a multiple of 4 further) with it. When the
// precondition does not hold, or the platform is big-endian, AliasBatch
// reports ok=false and the caller falls back to the copying DecodeBatch;
// both paths accept exactly the same frames (see alias_test.go).

// aliasable is true when the platform's native integer byte order
// matches the wire's little-endian layout, making the reinterpreting
// cast an identity. Resolved once at startup.
var aliasable = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// BatchAliasShift returns how many bytes (0–3) of buf to skip so a
// batch frame payload starting there has 4-byte-aligned caps and
// members sections — the precondition AliasBatch needs. Readers size
// their buffers with 3 bytes of slack and read the payload into
// buf[shift:shift+n]. The result is specific to buf's current backing
// array: recompute after any reallocation.
func BatchAliasShift(buf []byte) int {
	if cap(buf) == 0 {
		return 0
	}
	base := uintptr(unsafe.Pointer(unsafe.SliceData(buf[:cap(buf)])))
	return int((-(base + batchHeaderLen)) & 3)
}

// AliasBatch parses one batch frame without copying element data: on
// success the returned members and caps slices alias data's backing
// memory directly, and only offs — the prefix sums of the lens section —
// is computed, appended onto the provided slice (pass it length-zero to
// reuse its storage). The frame's structural validation is DecodeBatch's
// own (batchLayout): magic, version, exact length, lens summing to the
// declared member count.
//
// ok=false (with err=nil) means the frame cannot be aliased here — the
// platform is big-endian or data's sections are not 4-byte aligned (see
// BatchAliasShift) — and the caller must fall back to DecodeBatch,
// which also refuses the frame if it is malformed: the decline is
// decided before any check. err != nil means the frame is malformed and
// no decode path accepts it.
//
// Unlike DecodeBatch, values with the high bit set (capacity or SetID
// past MaxInt32) are not rejected here: they alias to negative int32s,
// which the engine's Batch.Validate rejects — the layer every wire
// ingest path runs before submitting. Callers must run that validation;
// the aliased slices are live views of data and must not outlive it.
func AliasBatch(data []byte, offs []int32) (members []setsystem.SetID, offsOut, caps []int32, ok bool, err error) {
	// The caps section starts batchHeaderLen bytes into data, and the
	// members section a multiple of 4 bytes after it.
	if !aliasable || (uintptr(unsafe.Pointer(unsafe.SliceData(data)))+batchHeaderLen)&3 != 0 {
		return nil, offs, nil, false, nil
	}
	capsRaw, memsRaw, offs, err := batchLayout(data, offs)
	if err != nil {
		return nil, offs, nil, false, err
	}
	caps = unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(capsRaw))), len(capsRaw)/4)
	if len(memsRaw) > 0 {
		members = unsafe.Slice((*setsystem.SetID)(unsafe.Pointer(unsafe.SliceData(memsRaw))), len(memsRaw)/4)
	} else {
		members = []setsystem.SetID{}
	}
	return members, offs, caps, true, nil
}

// leBytes views a slice's backing memory as bytes: on a little-endian
// host (aliasable), the wire encoding of its values.
func leBytes[T ~int32 | ~float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// appendSetIDsLE appends ids onto dst in the wire's little-endian
// uint32 layout. On a little-endian platform the int32 backing memory
// IS that layout, so the whole slice goes over as one bulk copy — the
// encode-side mirror of AliasBatch — with the per-value loop kept as
// the big-endian fallback. Both produce identical bytes for the values
// both accept; negative IDs never reach encoders (Batch.Validate and
// the client reject them first), so the uint32 reinterpretation is
// lossless.
func appendSetIDsLE(dst []byte, ids []setsystem.SetID) []byte {
	if len(ids) == 0 {
		return dst
	}
	if aliasable {
		return append(dst, leBytes(ids)...)
	}
	for _, s := range ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(s))
	}
	return dst
}
