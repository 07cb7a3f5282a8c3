// Package quant implements Bullion's storage quantization (paper §2.4,
// Figure 6): reduced-precision float formats for features and embeddings
// (FP16, BF16, TF32, FP8 E4M3/E5M2) and the dual-column FP32
// decomposition.
//
// Quantized values are stored as raw bit patterns and ride the integer
// cascade in internal/enc (bit-packing and dictionaries work directly on
// the narrow patterns).
package quant

import (
	"fmt"
	"math"
)

// Format identifies a storage float format from Figure 6. The zero value
// is FP32 ("no quantization"), so unconfigured float32 columns store their
// native bits.
type Format uint8

const (
	FP32    Format = iota // IEEE 754 single: 1/8/23 (native, no quantization)
	FP64                  // IEEE 754 double: 1/11/52
	TF32                  // NVIDIA TF32: 1/8/10 (stored in 32 bits, low mantissa cleared)
	FP16                  // IEEE 754 half: 1/5/10
	BF16                  // Google bfloat16: 1/8/7
	FP8E4M3               // NVIDIA FP8: 1/4/3 (no Inf; S.1111.111 = NaN)
	FP8E5M2               // NVIDIA FP8: 1/5/2 (IEEE-style specials)
)

// String returns the format name as used in Figure 6.
func (f Format) String() string {
	switch f {
	case FP64:
		return "FP64"
	case FP32:
		return "FP32"
	case TF32:
		return "TF32"
	case FP16:
		return "FP16"
	case BF16:
		return "BF16"
	case FP8E4M3:
		return "FP8-E4M3"
	case FP8E5M2:
		return "FP8-E5M2"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// Bits returns the storage width in bits. TF32 occupies 32 stored bits
// (19 significant); the narrower footprint comes from compression of the
// cleared mantissa tail.
func (f Format) Bits() int {
	switch f {
	case FP64:
		return 64
	case FP32, TF32:
		return 32
	case FP16, BF16:
		return 16
	case FP8E4M3, FP8E5M2:
		return 8
	}
	return 0
}

// Bytes returns the storage width in bytes.
func (f Format) Bytes() int { return f.Bits() / 8 }

// MaxRelError returns an upper bound on the relative rounding error for
// values in the format's normal range: 2^-(mantissaBits+1).
func (f Format) MaxRelError() float64 {
	switch f {
	case FP64:
		return 0
	case FP32:
		return math.Ldexp(1, -24)
	case TF32:
		return math.Ldexp(1, -11)
	case FP16:
		return math.Ldexp(1, -11)
	case BF16:
		return math.Ldexp(1, -8)
	case FP8E4M3:
		return math.Ldexp(1, -4)
	case FP8E5M2:
		return math.Ldexp(1, -3)
	}
	return 1
}

// ---- generic minifloat conversion ----
//
// encodeMini rounds a float64 to a 1/expBits/manBits minifloat with
// round-to-nearest-even, returning the bit pattern. e4m3 selects the
// NVIDIA E4M3 convention: no infinities, exponent-max mantissa-max is NaN,
// overflow saturates to the maximum finite value.

func encodeMini(v float64, expBits, manBits int, e4m3 bool) uint16 {
	bias := 1<<(expBits-1) - 1
	expMax := 1<<expBits - 1
	manMax := 1<<manBits - 1
	signBit := uint16(0)
	if math.Signbit(v) {
		signBit = 1 << uint(expBits+manBits)
		v = -v
	}
	switch {
	case math.IsNaN(v):
		// Canonical NaN: exponent all ones, mantissa all ones for E4M3,
		// mantissa MSB for IEEE-style.
		if e4m3 {
			return signBit | uint16(expMax<<manBits) | uint16(manMax)
		}
		return signBit | uint16(expMax<<manBits) | uint16(1<<(manBits-1))
	case math.IsInf(v, 0):
		if e4m3 {
			// E4M3 has no infinity; saturate to max finite.
			return signBit | miniMaxFinite(expBits, manBits, true)
		}
		return signBit | uint16(expMax<<manBits)
	case v == 0:
		return signBit
	}

	e := math.Ilogb(v)
	if e < 1-bias { // subnormal candidate
		q := math.Ldexp(1, 1-bias-manBits) // subnormal quantum
		m := int(math.RoundToEven(v / q))
		if m <= manMax {
			return signBit | uint16(m)
		}
		// Rounded up into the smallest normal.
		return signBit | uint16(1<<manBits)
	}

	// Normal: mantissa fraction in [1,2).
	frac := v / math.Ldexp(1, e) // in [1,2)
	m := int(math.RoundToEven((frac - 1) * float64(int(1)<<manBits)))
	if m > manMax {
		e++
		m = 0
	}
	biasedE := e + bias
	finiteExpMax := expMax - 1
	if e4m3 {
		finiteExpMax = expMax
	}
	if biasedE > finiteExpMax {
		if e4m3 {
			return signBit | miniMaxFinite(expBits, manBits, true)
		}
		return signBit | uint16(expMax<<manBits) // infinity
	}
	if e4m3 && biasedE == expMax && m == manMax {
		// That pattern is NaN in E4M3; saturate one step down.
		return signBit | uint16(expMax<<manBits) | uint16(manMax-1)
	}
	return signBit | uint16(biasedE<<manBits) | uint16(m)
}

// miniMaxFinite returns the bit pattern of the largest finite magnitude.
func miniMaxFinite(expBits, manBits int, e4m3 bool) uint16 {
	expMax := 1<<expBits - 1
	manMax := 1<<manBits - 1
	if e4m3 {
		return uint16(expMax<<manBits) | uint16(manMax-1) // 448 for E4M3
	}
	return uint16((expMax-1)<<manBits) | uint16(manMax)
}

// decodeMini expands a minifloat bit pattern to float64 exactly.
func decodeMini(bits uint16, expBits, manBits int, e4m3 bool) float64 {
	bias := 1<<(expBits-1) - 1
	expMax := 1<<expBits - 1
	manMax := 1<<manBits - 1
	sign := 1.0
	if bits&(1<<uint(expBits+manBits)) != 0 {
		sign = -1
	}
	e := int(bits>>uint(manBits)) & expMax
	m := int(bits) & manMax
	switch {
	case e == expMax && e4m3 && m == manMax:
		return math.NaN()
	case e == expMax && !e4m3 && m != 0:
		return math.NaN()
	case e == expMax && !e4m3:
		return sign * math.Inf(1)
	case e == 0:
		return sign * math.Ldexp(float64(m), 1-bias-manBits)
	default:
		return sign * math.Ldexp(1+float64(m)/float64(int(1)<<manBits), e-bias)
	}
}

// ---- FP16 ----

// FP16FromFloat32 converts v to IEEE half precision (round-to-nearest-even).
func FP16FromFloat32(v float32) uint16 {
	return encodeMini(float64(v), 5, 10, false)
}

// Float32FromFP16 expands an IEEE half bit pattern.
func Float32FromFP16(bits uint16) float32 {
	return float32(decodeMini(bits, 5, 10, false))
}

// ---- BF16 ----

// BF16FromFloat32 converts v to bfloat16 with round-to-nearest-even on the
// dropped 16 mantissa bits.
func BF16FromFloat32(v float32) uint16 {
	b := math.Float32bits(v)
	if v != v { // NaN: truncation could silently turn it into Inf
		return uint16(b>>16) | 0x0040
	}
	// Round to nearest even: add 0x7FFF + LSB of the surviving part.
	round := uint32(0x7FFF) + (b>>16)&1
	return uint16((b + round) >> 16)
}

// Float32FromBF16 expands a bfloat16 bit pattern.
func Float32FromBF16(bits uint16) float32 {
	return math.Float32frombits(uint32(bits) << 16)
}

// ---- TF32 ----

// TF32FromFloat32 rounds v to TF32: FP32 with the mantissa reduced to 10
// bits (the low 13 cleared), round-to-nearest-even. The result remains a
// valid float32 bit pattern.
func TF32FromFloat32(v float32) uint32 {
	b := math.Float32bits(v)
	if v != v {
		return b | 0x0400 // keep NaN a NaN after clearing
	}
	exp := b >> 23 & 0xFF
	if exp == 0xFF {
		return b &^ 0x1FFF // preserve Inf/NaN class
	}
	round := uint32(0xFFF) + (b>>13)&1
	b += round
	return b &^ 0x1FFF
}

// Float32FromTF32 reinterprets a TF32 pattern as float32 (identity: TF32
// patterns are valid float32).
func Float32FromTF32(bits uint32) float32 { return math.Float32frombits(bits) }

// ---- FP8 ----

// FP8E4M3FromFloat32 converts v to NVIDIA FP8 E4M3.
func FP8E4M3FromFloat32(v float32) uint8 {
	return uint8(encodeMini(float64(v), 4, 3, true))
}

// Float32FromFP8E4M3 expands an E4M3 bit pattern.
func Float32FromFP8E4M3(bits uint8) float32 {
	return float32(decodeMini(uint16(bits), 4, 3, true))
}

// FP8E5M2FromFloat32 converts v to NVIDIA FP8 E5M2.
func FP8E5M2FromFloat32(v float32) uint8 {
	return uint8(encodeMini(float64(v), 5, 2, false))
}

// Float32FromFP8E5M2 expands an E5M2 bit pattern.
func Float32FromFP8E5M2(bits uint8) float32 {
	return float32(decodeMini(uint16(bits), 5, 2, false))
}

// ---- vector API ----

// Quantize converts float32 values to the format's bit patterns, widened to
// int64 for the integer cascade. FP32 passes bit patterns through; FP64 is
// rejected (use the float64 cascade for doubles).
func Quantize(vs []float32, f Format) ([]int64, error) {
	out := make([]int64, len(vs))
	switch f {
	case FP32:
		for i, v := range vs {
			out[i] = int64(math.Float32bits(v))
		}
	case TF32:
		for i, v := range vs {
			out[i] = int64(TF32FromFloat32(v))
		}
	case FP16:
		for i, v := range vs {
			out[i] = int64(FP16FromFloat32(v))
		}
	case BF16:
		for i, v := range vs {
			out[i] = int64(BF16FromFloat32(v))
		}
	case FP8E4M3:
		for i, v := range vs {
			out[i] = int64(FP8E4M3FromFloat32(v))
		}
	case FP8E5M2:
		for i, v := range vs {
			out[i] = int64(FP8E5M2FromFloat32(v))
		}
	default:
		return nil, fmt.Errorf("quant: cannot quantize float32 to %v", f)
	}
	return out, nil
}

// Dequantize expands bit patterns produced by Quantize back to float32.
func Dequantize(bits []int64, f Format) ([]float32, error) {
	return DequantizeInto(make([]float32, len(bits)), bits, f)
}

// DequantizeInto expands bit patterns into out, which must have the same
// length as bits; every element is overwritten, so callers may pass
// recycled slices.
func DequantizeInto(out []float32, bits []int64, f Format) ([]float32, error) {
	if len(out) != len(bits) {
		return nil, fmt.Errorf("quant: dst length %d != src %d", len(out), len(bits))
	}
	switch f {
	case FP32:
		for i, b := range bits {
			out[i] = math.Float32frombits(uint32(b))
		}
	case TF32:
		for i, b := range bits {
			out[i] = Float32FromTF32(uint32(b))
		}
	case FP16:
		for i, b := range bits {
			out[i] = Float32FromFP16(uint16(b))
		}
	case BF16:
		for i, b := range bits {
			out[i] = Float32FromBF16(uint16(b))
		}
	case FP8E4M3:
		for i, b := range bits {
			out[i] = Float32FromFP8E4M3(uint8(b))
		}
	case FP8E5M2:
		for i, b := range bits {
			out[i] = Float32FromFP8E5M2(uint8(b))
		}
	default:
		return nil, fmt.Errorf("quant: cannot dequantize %v to float32", f)
	}
	return out, nil
}
