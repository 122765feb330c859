package fp16

import (
	"math"

	"github.com/datastates/mlpoffload/internal/kernpool"
)

// BF16 is a raw bfloat16 value (the other half-precision format the paper
// mentions for mixed-precision training: same exponent range as FP32,
// 7 fraction bits). Conversions are trivial truncations of the FP32 bit
// pattern, which is why BF16 training needs no loss scaling.
type BF16 uint16

// BF16FromFloat32 converts with round-to-nearest-even on the low 16 bits.
// NaNs are quieted so truncation cannot produce an infinity from a NaN.
func BF16FromFloat32(f float32) BF16 {
	b := math.Float32bits(f)
	if b&0x7F800000 == 0x7F800000 && b&0x007FFFFF != 0 {
		// NaN: preserve sign, force a quiet payload bit that survives
		// truncation.
		return BF16(uint16(b>>16) | 0x0040)
	}
	rem := b & 0xFFFF
	hi := b >> 16
	const half = 0x8000
	if rem > half || (rem == half && hi&1 == 1) {
		hi++ // may carry into the exponent; overflow to Inf is correct
	}
	return BF16(hi)
}

// BF16ToFloat32 widens exactly.
func BF16ToFloat32(h BF16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// BF16IsNaN reports NaN.
func BF16IsNaN(h BF16) bool {
	return h&0x7F80 == 0x7F80 && h&0x007F != 0
}

// BF16IsInf reports either infinity.
func BF16IsInf(h BF16) bool {
	return h&0x7FFF == 0x7F80
}

// The BF16 bulk kernels are 8-wide unrolled like their binary16
// counterparts (see fp16.go): one bounds check per block, eight
// independent scalar conversions, results bit-identical to the plain
// loop by construction.

// EncodeBF16 converts src into dst; returns elements converted.
func EncodeBF16(dst []BF16, src []float32) int {
	n := min(len(dst), len(src))
	encodeRangeBF16(dst, src, 0, n)
	return n
}

// EncodeBF16On is EncodeBF16 fanned across the kernel pool's workers;
// bit-identical at any pool size.
func EncodeBF16On(p *kernpool.Pool, dst []BF16, src []float32) int {
	n := min(len(dst), len(src))
	p.Run(n, func(lo, hi int) { encodeRangeBF16(dst, src, lo, hi) })
	return n
}

// encodeRangeBF16 is the 8-wide unrolled encode kernel over [lo,hi).
func encodeRangeBF16(dst []BF16, src []float32, lo, hi int) {
	i := lo
	n := hi
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] = BF16FromFloat32(s[0])
		d[1] = BF16FromFloat32(s[1])
		d[2] = BF16FromFloat32(s[2])
		d[3] = BF16FromFloat32(s[3])
		d[4] = BF16FromFloat32(s[4])
		d[5] = BF16FromFloat32(s[5])
		d[6] = BF16FromFloat32(s[6])
		d[7] = BF16FromFloat32(s[7])
	}
	for ; i < n; i++ {
		dst[i] = BF16FromFloat32(src[i])
	}
}

// DecodeBF16 converts src into dst; returns elements converted.
func DecodeBF16(dst []float32, src []BF16) int {
	n := min(len(dst), len(src))
	decodeRangeBF16(dst, src, 0, n)
	return n
}

// DecodeBF16On is DecodeBF16 fanned across the kernel pool's workers;
// bit-identical at any pool size.
func DecodeBF16On(p *kernpool.Pool, dst []float32, src []BF16) int {
	n := min(len(dst), len(src))
	p.Run(n, func(lo, hi int) { decodeRangeBF16(dst, src, lo, hi) })
	return n
}

// decodeRangeBF16 is the 8-wide unrolled decode kernel over [lo,hi).
func decodeRangeBF16(dst []float32, src []BF16, lo, hi int) {
	i := lo
	n := hi
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] = BF16ToFloat32(s[0])
		d[1] = BF16ToFloat32(s[1])
		d[2] = BF16ToFloat32(s[2])
		d[3] = BF16ToFloat32(s[3])
		d[4] = BF16ToFloat32(s[4])
		d[5] = BF16ToFloat32(s[5])
		d[6] = BF16ToFloat32(s[6])
		d[7] = BF16ToFloat32(s[7])
	}
	for ; i < n; i++ {
		dst[i] = BF16ToFloat32(src[i])
	}
}

// DecodeAccumulateBF16 adds the widened values of src into dst.
func DecodeAccumulateBF16(dst []float32, src []BF16) int {
	n := min(len(dst), len(src))
	i := 0
	for ; i+8 <= n; i += 8 {
		d := dst[i : i+8 : i+8]
		s := src[i : i+8 : i+8]
		d[0] += BF16ToFloat32(s[0])
		d[1] += BF16ToFloat32(s[1])
		d[2] += BF16ToFloat32(s[2])
		d[3] += BF16ToFloat32(s[3])
		d[4] += BF16ToFloat32(s[4])
		d[5] += BF16ToFloat32(s[5])
		d[6] += BF16ToFloat32(s[6])
		d[7] += BF16ToFloat32(s[7])
	}
	for ; i < n; i++ {
		dst[i] += BF16ToFloat32(src[i])
	}
	return n
}
