// Package wire is the compact binary frame codec of the streaming
// ingest path (DESIGN.md "Streaming ingest"): one frame carries one
// grid-wide phasor snapshot — sequence number, bus count, an optional
// missing-data bitmap, and the per-bus voltage phasors — in a
// fixed-layout, CRC-guarded encoding flavored after IEEE C37.118 data
// frames. It replaces per-sample JSON on the device→detector path: a
// 118-bus frame is ~1.9 KiB instead of ~5 KiB of JSON, and decoding is
// a bounds-checked copy instead of reflection.
//
// Layout (big-endian):
//
//	offset          size  field
//	0               1     sync byte 0xAA
//	1               1     frame type/version tag 0x31
//	2               2     total frame size in bytes
//	4               1     codec version (Version)
//	5               4     sequence number
//	9               2     bus count n
//	11              1     flags (bit0: missing bitmap present)
//	12              m     missing bitmap, m = ceil(n/8), iff flag bit0
//	12+m            8n    Vm, float64 bits per bus (p.u.)
//	12+m+8n         8n    Va, float64 bits per bus (rad)
//	size-2          2     CRC-CCITT (poly 0x1021, init 0xFFFF) over [0, size-2)
//
// The Frame struct declares its fields in this payload order, and
// AppendFrame and DecodeFrame write and read each through a call typed
// to its width, so a field whose type changes no longer compiles.
// Encoding is canonical: a decoded frame re-encodes to the identical
// bytes, which the fuzz test pins.
//
// Frames and scratch buffers are pooled (GetFrame/PutFrame,
// GetBuffer/PutBuffer), and DecodeFrame reuses the destination frame's
// slices, so the steady-state decode path allocates nothing — pinned by
// an AllocsPerRun test and screened by gridlint's allocfree analyzer.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"sync"
)

// Codec constants. MaxBuses bounds the bus count a frame may claim so a
// corrupt size field cannot make a reader allocate unbounded memory;
// the largest test grids are a few hundred buses.
const (
	sync0 = 0xAA
	sync1 = 0x31

	// Version is the codec version byte; decoders reject anything else.
	Version = 1

	// FlagMissing marks the presence of the missing-data bitmap.
	FlagMissing = 0x01

	headerSize = 12
	crcSize    = 2

	// MaxBuses bounds the per-frame bus count.
	MaxBuses = 4096
)

// MaxFrameBytes is the size of the largest well-formed frame — the read
// bound transports apply before decoding.
var MaxFrameBytes = EncodedSize(MaxBuses, true)

// Codec errors. DecodeFrame wraps nothing: these are terminal verdicts
// on a byte buffer, matched with errors.Is by transports that map them
// to protocol errors.
var (
	// ErrShort reports a buffer shorter than the frame it claims to hold.
	ErrShort = errors.New("wire: short frame")
	// ErrMagic reports a buffer that does not start with the sync bytes.
	ErrMagic = errors.New("wire: bad sync bytes")
	// ErrVersion reports an unsupported codec version byte.
	ErrVersion = errors.New("wire: unsupported frame version")
	// ErrCRC reports a checksum mismatch.
	ErrCRC = errors.New("wire: frame CRC mismatch")
	// ErrFrame reports a structurally invalid frame: zero or oversized
	// bus count, a size field that disagrees with the bus count and
	// flags, unknown flag bits, or mismatched Vm/Va lengths on encode.
	ErrFrame = errors.New("wire: malformed frame")
)

// Frame is one decoded phasor frame. Its fields are declared in the
// order AppendFrame writes them.
type Frame struct {
	// Seq is the device time-step sequence number.
	Seq uint32
	// Buses is the bus count n; Vm, Va, and the bitmap size follow it.
	Buses uint16
	// Flags carries FlagMissing; all other bits must be zero.
	Flags uint8
	// Missing is the ceil(n/8)-byte missing-data bitmap (bit i of byte
	// i/8 set = bus i missing), present on the wire iff FlagMissing.
	Missing []uint8
	// Vm holds the per-bus voltage magnitudes.
	Vm []float64 //gridlint:unit pu
	// Va holds the per-bus voltage angles.
	Va []float64 //gridlint:unit rad
}

// N returns the frame's bus count as an int.
func (f *Frame) N() int { return int(f.Buses) }

// Reset sizes the frame for n buses and clears the sequence number,
// flags, and missing bitmap. It reuses the frame's slices once they
// have grown to n, so pooled frames reset allocation-free.
func (f *Frame) Reset(n int) {
	f.Seq = 0
	f.Buses = uint16(n)
	f.Flags = 0
	f.Vm = growFloats(f.Vm, n)
	f.Va = growFloats(f.Va, n)
	f.Missing = growBytes(f.Missing, bitmapLen(n))
	for i := range f.Missing {
		f.Missing[i] = 0
	}
}

// MarkMissing flags bus i as missing and sets FlagMissing. Out-of-range
// indices are ignored (the caller validated the bus count via Reset).
func (f *Frame) MarkMissing(i int) {
	if i < 0 || i >= f.N() {
		return
	}
	f.Missing[i>>3] |= 1 << uint(i&7)
	f.Flags |= FlagMissing
}

// IsMissing reports whether bus i is flagged missing.
func (f *Frame) IsMissing(i int) bool {
	if f.Flags&FlagMissing == 0 || i < 0 || i>>3 >= len(f.Missing) {
		return false
	}
	return f.Missing[i>>3]&(1<<uint(i&7)) != 0
}

// Pack fills the frame with one assembled sample: seq, the phasor
// vectors, and an optional missing mask (true = missing; nil or
// all-false means complete). The vectors are copied, so the caller
// keeps ownership of its slices.
//
//gridlint:zeroalloc
func (f *Frame) Pack(seq uint32, vm, va []float64, missing []bool) error {
	n := len(vm)
	if n == 0 || n > MaxBuses || len(va) != n || (missing != nil && len(missing) != n) {
		return ErrFrame
	}
	f.Reset(n)
	f.Seq = seq
	copy(f.Vm, vm)
	copy(f.Va, va)
	for i, miss := range missing {
		if miss {
			f.MarkMissing(i)
		}
	}
	return nil
}

// EncodedSize returns the byte length of a frame with n buses, with or
// without the missing bitmap.
func EncodedSize(n int, withBitmap bool) int {
	size := headerSize + 16*n + crcSize
	if withBitmap {
		size += bitmapLen(n)
	}
	return size
}

func bitmapLen(n int) int { return (n + 7) / 8 }

// AppendFrame appends f's canonical encoding to dst and returns the
// extended slice. With enough capacity in dst it does not allocate —
// pooled Buffers make repeated encoding allocation-free after warmup.
func AppendFrame(dst []byte, f *Frame) ([]byte, error) {
	n := f.N()
	if n == 0 || n > MaxBuses || len(f.Vm) != n || len(f.Va) != n || f.Flags&^FlagMissing != 0 {
		return dst, ErrFrame
	}
	withBitmap := f.Flags&FlagMissing != 0
	if withBitmap && len(f.Missing) != bitmapLen(n) {
		return dst, ErrFrame
	}
	start := len(dst)
	size := EncodedSize(n, withBitmap)
	dst = growBytesBy(dst, size)
	b := dst[start:]
	b[0], b[1] = sync0, sync1
	binary.BigEndian.PutUint16(b[2:], uint16(size))
	b[4] = Version
	binary.BigEndian.PutUint32(b[5:], f.Seq)
	binary.BigEndian.PutUint16(b[9:], f.Buses)
	b[11] = f.Flags
	off := headerSize
	if withBitmap {
		off += copy(b[off:], f.Missing)
	}
	for _, v := range f.Vm {
		binary.BigEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	for _, v := range f.Va {
		binary.BigEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	binary.BigEndian.PutUint16(b[off:], crc16(b[:off]))
	return dst, nil
}

// FrameSize peeks a buffered stream prefix (at least 4 bytes) and
// returns the total byte length of the frame that starts there, so
// stream readers know how much to buffer before DecodeFrame.
func FrameSize(buf []byte) (int, error) {
	if len(buf) < 4 {
		return 0, ErrShort
	}
	if buf[0] != sync0 || buf[1] != sync1 {
		return 0, ErrMagic
	}
	size := int(binary.BigEndian.Uint16(buf[2:]))
	if size < headerSize+crcSize {
		return 0, ErrFrame
	}
	return size, nil
}

// DecodeFrame decodes one frame from the start of buf into f, reusing
// f's slices, and returns the number of bytes consumed. Trailing bytes
// beyond the frame's size field are ignored (stream framing). The
// steady-state path allocates nothing once f's slices have grown.
//
//gridlint:zeroalloc
func DecodeFrame(buf []byte, f *Frame) (int, error) {
	if len(buf) < headerSize+crcSize {
		return 0, ErrShort
	}
	if buf[0] != sync0 || buf[1] != sync1 {
		return 0, ErrMagic
	}
	if buf[4] != Version {
		return 0, ErrVersion
	}
	size := int(binary.BigEndian.Uint16(buf[2:]))
	n := int(binary.BigEndian.Uint16(buf[9:]))
	flags := buf[11]
	if n == 0 || n > MaxBuses || flags&^FlagMissing != 0 {
		return 0, ErrFrame
	}
	withBitmap := flags&FlagMissing != 0
	if size != EncodedSize(n, withBitmap) {
		return 0, ErrFrame
	}
	if len(buf) < size {
		return 0, ErrShort
	}
	body := buf[:size-crcSize]
	if crc16(body) != binary.BigEndian.Uint16(buf[size-crcSize:]) {
		return 0, ErrCRC
	}
	f.Seq = binary.BigEndian.Uint32(buf[5:])
	f.Buses = uint16(n)
	f.Flags = flags
	f.Vm = growFloats(f.Vm, n)
	f.Va = growFloats(f.Va, n)
	f.Missing = growBytes(f.Missing, bitmapLen(n))
	off := headerSize
	if withBitmap {
		off += copy(f.Missing, buf[off:off+bitmapLen(n)])
	} else {
		for i := range f.Missing {
			f.Missing[i] = 0
		}
	}
	for i := 0; i < n; i++ {
		f.Vm[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
	}
	for i := 0; i < n; i++ {
		f.Va[i] = math.Float64frombits(binary.BigEndian.Uint64(buf[off:]))
		off += 8
	}
	return size, nil
}

// growFloats resizes s to length n, reusing its backing array when the
// capacity allows. Kept out of the zeroalloc-annotated codec bodies so
// the one legitimately allocating branch (first growth) is isolated.
func growFloats(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

func growBytes(s []byte, n int) []byte {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]byte, n)
}

// growBytesBy extends s by n bytes (contents undefined), reusing
// capacity when available.
func growBytesBy(s []byte, n int) []byte {
	if cap(s)-len(s) >= n {
		return s[:len(s)+n]
	}
	out := make([]byte, len(s)+n, 2*(len(s)+n))
	copy(out, s)
	return out
}

// crcTable is the CRC-CCITT (poly X^16+X^12+X^5+1) lookup table the
// C37.118 checksum uses.
var crcTable = makeCRCTable()

func makeCRCTable() [256]uint16 {
	var t [256]uint16
	for i := range t {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}

// crc16 is CRC-CCITT with init 0xFFFF, as C37.118 frames use.
func crc16(b []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, x := range b {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^x]
	}
	return crc
}

// framePool recycles decoded frames across the ingest hot path; a
// warmed pool makes GetFrame+DecodeFrame+PutFrame allocation-free.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns a pooled frame. Contents are undefined until Reset,
// Pack, or DecodeFrame fills it.
func GetFrame() *Frame {
	return framePool.Get().(*Frame)
}

// PutFrame recycles a frame obtained from GetFrame. The caller must not
// touch f (or slices aliasing its fields) afterwards.
func PutFrame(f *Frame) {
	if f != nil {
		framePool.Put(f)
	}
}

// Buffer is a pooled byte buffer for encoded frames.
type Buffer struct{ B []byte }

// ReadFrom appends r's bytes to B until EOF, implementing
// io.ReaderFrom so transports can slurp request bodies into pooled
// storage.
func (b *Buffer) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

var bufPool = sync.Pool{New: func() any { return &Buffer{B: make([]byte, 0, 4096)} }}

// GetBuffer returns a pooled buffer with length-zero contents.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.B = b.B[:0]
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer.
func PutBuffer(b *Buffer) {
	if b != nil {
		bufPool.Put(b)
	}
}
