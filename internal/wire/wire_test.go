package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"
)

func mustFrame(n int, missing ...int) *Frame {
	f := &Frame{}
	vm := make([]float64, n)
	va := make([]float64, n)
	for i := 0; i < n; i++ {
		vm[i] = 1.0 + 0.01*float64(i)
		va[i] = -0.3 + 0.05*float64(i)
	}
	mask := make([]bool, n)
	for _, b := range missing {
		mask[b] = true
	}
	if err := f.Pack(4242, vm, va, mask); err != nil {
		panic(err)
	}
	return f
}

func testFrame(t *testing.T, n int, missing ...int) *Frame {
	t.Helper()
	return mustFrame(n, missing...)
}

func TestRoundTripByteExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		missing []int
	}{
		{"one-bus", 1, nil},
		{"ieee14", 14, nil},
		{"ieee14-missing", 14, []int{0, 7, 13}},
		{"ieee118", 118, []int{5}},
		{"odd-bitmap", 9, []int{8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := testFrame(t, tc.n, tc.missing...)
			enc, err := AppendFrame(nil, f)
			if err != nil {
				t.Fatalf("AppendFrame: %v", err)
			}
			if len(enc) != EncodedSize(tc.n, len(tc.missing) > 0) {
				t.Fatalf("encoded %d bytes, want %d", len(enc), EncodedSize(tc.n, len(tc.missing) > 0))
			}
			var got Frame
			consumed, err := DecodeFrame(enc, &got)
			if err != nil {
				t.Fatalf("DecodeFrame: %v", err)
			}
			if consumed != len(enc) {
				t.Fatalf("consumed %d, want %d", consumed, len(enc))
			}
			if got.Seq != f.Seq || got.Buses != f.Buses || got.Flags != f.Flags {
				t.Fatalf("header mismatch: got %+v want %+v", got, *f)
			}
			for i := 0; i < tc.n; i++ {
				if got.Vm[i] != f.Vm[i] || got.Va[i] != f.Va[i] {
					t.Fatalf("bus %d phasor mismatch", i)
				}
			}
			for i := 0; i < tc.n; i++ {
				if got.IsMissing(i) != f.IsMissing(i) {
					t.Fatalf("bus %d missing bit mismatch", i)
				}
			}
			re, err := AppendFrame(nil, &got)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(re, enc) {
				t.Fatalf("re-encode not byte-identical:\n got %x\nwant %x", re, enc)
			}
		})
	}
}

// crc16Ref is an independent bit-by-bit CRC-CCITT implementation used
// to cross-check the table-driven one in the codec.
func crc16Ref(b []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, x := range b {
		crc ^= uint16(x) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRCMatchesReference: the sliced crc16 equals the bit-by-bit
// reference on every length from 0 to 64 and on random lengths up to
// 4,096 bytes, each from start offsets 0 to 8, so every alignment of
// the 8-byte blocks is read.
func TestCRCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 4096+8)
	rng.Read(buf)
	var lengths []int
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 200; i++ {
		lengths = append(lengths, rng.Intn(4097))
	}
	lengths = append(lengths, 4095, 4096)
	for _, n := range lengths {
		for off := 0; off <= 8; off++ {
			b := buf[off : off+n]
			if got, want := crc16(b), crc16Ref(b); got != want {
				t.Fatalf("%d bytes at offset %d: crc16 %#04x, reference %#04x", n, off, got, want)
			}
		}
	}
}

func TestGoldenLayout(t *testing.T) {
	f := &Frame{}
	if err := f.Pack(0x01020304, []float64{1.0, 0.5}, []float64{-0.25, 0.125}, []bool{false, true}); err != nil {
		t.Fatalf("Pack: %v", err)
	}
	enc, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	wantSize := headerSize + 1 + 2*16 + crcSize
	if len(enc) != wantSize {
		t.Fatalf("size %d, want %d", len(enc), wantSize)
	}
	if enc[0] != 0xAA || enc[1] != 0x31 {
		t.Fatalf("sync bytes %x %x", enc[0], enc[1])
	}
	if binary.BigEndian.Uint16(enc[2:]) != uint16(wantSize) {
		t.Fatalf("size field %d", binary.BigEndian.Uint16(enc[2:]))
	}
	if enc[4] != Version {
		t.Fatalf("version byte %d", enc[4])
	}
	if binary.BigEndian.Uint32(enc[5:]) != 0x01020304 {
		t.Fatalf("seq field %x", enc[5:9])
	}
	if binary.BigEndian.Uint16(enc[9:]) != 2 {
		t.Fatalf("bus count field %d", binary.BigEndian.Uint16(enc[9:]))
	}
	if enc[11] != FlagMissing {
		t.Fatalf("flags byte %x", enc[11])
	}
	if enc[12] != 0x02 { // bit 1 set = bus 1 missing
		t.Fatalf("bitmap byte %x", enc[12])
	}
	if got := math.Float64frombits(binary.BigEndian.Uint64(enc[13:])); got != 1.0 {
		t.Fatalf("vm[0] on wire = %v", got)
	}
	if got := math.Float64frombits(binary.BigEndian.Uint64(enc[13+16:])); got != -0.25 {
		t.Fatalf("va[0] on wire = %v", got)
	}
	body := enc[:len(enc)-crcSize]
	if got, want := binary.BigEndian.Uint16(enc[len(enc)-crcSize:]), crc16Ref(body); got != want {
		t.Fatalf("CRC on wire %04x, reference %04x", got, want)
	}
}

func TestDecodeErrors(t *testing.T) {
	f := testFrame(t, 3, 1)
	enc, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	mut := func(mutate func([]byte) []byte) []byte {
		c := append([]byte(nil), enc...)
		return mutate(c)
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShort},
		{"truncated-header", enc[:8], ErrShort},
		{"truncated-body", enc[:len(enc)-4], ErrShort},
		{"bad-sync", mut(func(b []byte) []byte { b[0] = 0x00; return b }), ErrMagic},
		{"bad-version", mut(func(b []byte) []byte { b[4] = 9; return b }), ErrVersion},
		{"zero-buses", mut(func(b []byte) []byte { binary.BigEndian.PutUint16(b[9:], 0); return b }), ErrFrame},
		{"huge-buses", mut(func(b []byte) []byte { binary.BigEndian.PutUint16(b[9:], MaxBuses+1); return b }), ErrFrame},
		{"unknown-flag", mut(func(b []byte) []byte { b[11] |= 0x80; return b }), ErrFrame},
		{"size-mismatch", mut(func(b []byte) []byte { binary.BigEndian.PutUint16(b[2:], uint16(len(b)+8)); return b }), ErrFrame},
		{"flipped-phasor", mut(func(b []byte) []byte { b[20] ^= 0xFF; return b }), ErrCRC},
		{"flipped-crc", mut(func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b }), ErrCRC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Frame
			if _, err := DecodeFrame(tc.buf, &g); !errors.Is(err, tc.want) {
				t.Fatalf("DecodeFrame = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeIgnoresTrailingBytes(t *testing.T) {
	f := testFrame(t, 5)
	enc, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	stream := append(append([]byte(nil), enc...), 0xDE, 0xAD, 0xBE, 0xEF)
	size, err := FrameSize(stream)
	if err != nil || size != len(enc) {
		t.Fatalf("FrameSize = %d, %v; want %d", size, err, len(enc))
	}
	var g Frame
	consumed, err := DecodeFrame(stream, &g)
	if err != nil || consumed != len(enc) {
		t.Fatalf("DecodeFrame = %d, %v; want %d", consumed, err, len(enc))
	}
}

func TestPackValidation(t *testing.T) {
	var f Frame
	vm := []float64{1, 1}
	if err := f.Pack(1, nil, nil, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("empty pack: %v", err)
	}
	if err := f.Pack(1, vm, vm[:1], nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("mismatched va: %v", err)
	}
	if err := f.Pack(1, vm, vm, []bool{true}); !errors.Is(err, ErrFrame) {
		t.Fatalf("mismatched mask: %v", err)
	}
	big := make([]float64, MaxBuses+1)
	if err := f.Pack(1, big, big, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized pack: %v", err)
	}
}

// TestFrameReuseShrinks pins that a pooled frame decoded for a big grid
// then a small one carries no stale state between the two.
func TestFrameReuseShrinks(t *testing.T) {
	big := testFrame(t, 32, 3, 31)
	small := testFrame(t, 2)
	encBig, _ := AppendFrame(nil, big)
	encSmall, _ := AppendFrame(nil, small)
	f := GetFrame()
	defer PutFrame(f)
	if _, err := DecodeFrame(encBig, f); err != nil {
		t.Fatalf("decode big: %v", err)
	}
	if _, err := DecodeFrame(encSmall, f); err != nil {
		t.Fatalf("decode small: %v", err)
	}
	if f.N() != 2 || f.Flags != 0 {
		t.Fatalf("stale frame state: n=%d flags=%x", f.N(), f.Flags)
	}
	for i := 0; i < f.N(); i++ {
		if f.IsMissing(i) {
			t.Fatalf("stale missing bit on bus %d", i)
		}
	}
	re, err := AppendFrame(nil, f)
	if err != nil || !bytes.Equal(re, encSmall) {
		t.Fatalf("reused frame re-encode mismatch (%v)", err)
	}
}

// TestPutBufferDropsGrown: a buffer grown past MaxFrameBytes, as a
// request body of many frames grows one, is not kept in the pool.
func TestPutBufferDropsGrown(t *testing.T) {
	b := GetBuffer()
	b.B = make([]byte, 0, 2*MaxFrameBytes)
	PutBuffer(b)
	if got := GetBuffer(); cap(got.B) > MaxFrameBytes {
		t.Fatalf("pool returned a %d-byte buffer, past MaxFrameBytes (%d)", cap(got.B), MaxFrameBytes)
	}
}

// TestDecodeFrameAllocs pins the steady-state decode path at zero
// allocations, backing the //gridlint:zeroalloc annotation on
// DecodeFrame.
func TestDecodeFrameAllocs(t *testing.T) {
	src := testFrame(t, 14, 2, 9)
	enc, err := AppendFrame(nil, src)
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	f := GetFrame()
	defer PutFrame(f)
	if _, err := DecodeFrame(enc, f); err != nil { // warm the slices
		t.Fatalf("DecodeFrame: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeFrame(enc, f); err != nil {
			t.Errorf("DecodeFrame: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeFrame allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPackAllocs pins the steady-state Pack path at zero allocations,
// backing the //gridlint:zeroalloc annotation on Pack.
func TestPackAllocs(t *testing.T) {
	n := 14
	vm := make([]float64, n)
	va := make([]float64, n)
	mask := make([]bool, n)
	mask[3] = true
	for i := range vm {
		vm[i] = 1.01
		va[i] = -0.2
	}
	f := GetFrame()
	defer PutFrame(f)
	if err := f.Pack(1, vm, va, mask); err != nil { // warm the slices
		t.Fatalf("Pack: %v", err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := f.Pack(2, vm, va, mask); err != nil {
			t.Errorf("Pack: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Pack allocates %.1f allocs/op, want 0", allocs)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	small, _ := AppendFrame(nil, mustFrame(1))
	miss, _ := AppendFrame(nil, mustFrame(9, 0, 8))
	f.Add(small)
	f.Add(miss)
	f.Add([]byte{sync0, sync1, 0, 30, Version})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fr Frame
		consumed, err := DecodeFrame(data, &fr)
		if err != nil {
			return
		}
		if consumed < headerSize+crcSize || consumed > len(data) {
			t.Fatalf("consumed %d of %d", consumed, len(data))
		}
		re, err := AppendFrame(nil, &fr)
		if err != nil {
			t.Fatalf("re-encode of valid frame failed: %v", err)
		}
		if !bytes.Equal(re, data[:consumed]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:consumed], re)
		}
	})
}

// jsonSample mirrors the facade's JSON sample shape for the codec
// comparison benchmarks.
type jsonSample struct {
	Vm      []float64 `json:"vm"`
	Va      []float64 `json:"va"`
	Missing []int     `json:"missing,omitempty"`
}

func benchVectors(n int) ([]float64, []float64) {
	vm := make([]float64, n)
	va := make([]float64, n)
	for i := range vm {
		vm[i] = 1.0 + 0.001*float64(i)
		va[i] = -0.5 + 0.002*float64(i)
	}
	return vm, va
}

func BenchmarkDecodeFrame(b *testing.B) {
	vm, va := benchVectors(118)
	var src Frame
	if err := src.Pack(7, vm, va, nil); err != nil {
		b.Fatal(err)
	}
	enc, err := AppendFrame(nil, &src)
	if err != nil {
		b.Fatal(err)
	}
	var f Frame
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(enc, &f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeJSON(b *testing.B) {
	vm, va := benchVectors(118)
	enc, err := json.Marshal(jsonSample{Vm: vm, Va: va})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s jsonSample
		if err := json.Unmarshal(enc, &s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendFrame(b *testing.B) {
	vm, va := benchVectors(118)
	var f Frame
	if err := f.Pack(7, vm, va, nil); err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, EncodedSize(118, true))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendFrame(buf[:0], &f)
		if err != nil {
			b.Fatal(err)
		}
	}
}
