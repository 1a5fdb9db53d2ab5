// Package wideint provides a fixed-width 192-bit unsigned integer.
//
// Polymorphic ECC codewords are 80 bits (8-bit symbols) or 160 bits
// (16-bit symbols), so they do not fit a uint64 but comfortably fit three
// 64-bit limbs. U192 supports exactly the operations the residue codecs
// need: shifts, bit and field manipulation, addition/subtraction, and
// reduction modulo a small (<= 63-bit) modulus.
package wideint

import (
	"fmt"
	"math/bits"
)

// U192 is a 192-bit unsigned integer stored as three little-endian limbs:
// W0 holds bits 0..63, W1 bits 64..127, W2 bits 128..191. Arithmetic wraps
// modulo 2^192. The zero value is the number zero.
type U192 struct {
	W0, W1, W2 uint64
}

// FromUint64 returns v as a U192.
func FromUint64(v uint64) U192 { return U192{W0: v} }

// IsZero reports whether u is zero.
func (u U192) IsZero() bool { return u.W0|u.W1|u.W2 == 0 }

// Cmp compares u and v, returning -1, 0, or +1.
func (u U192) Cmp(v U192) int {
	switch {
	case u.W2 != v.W2:
		if u.W2 < v.W2 {
			return -1
		}
		return 1
	case u.W1 != v.W1:
		if u.W1 < v.W1 {
			return -1
		}
		return 1
	case u.W0 != v.W0:
		if u.W0 < v.W0 {
			return -1
		}
		return 1
	}
	return 0
}

// Add returns u+v mod 2^192.
func (u U192) Add(v U192) U192 {
	var r U192
	var c uint64
	r.W0, c = bits.Add64(u.W0, v.W0, 0)
	r.W1, c = bits.Add64(u.W1, v.W1, c)
	r.W2, _ = bits.Add64(u.W2, v.W2, c)
	return r
}

// Sub returns u-v mod 2^192.
func (u U192) Sub(v U192) U192 {
	var r U192
	var b uint64
	r.W0, b = bits.Sub64(u.W0, v.W0, 0)
	r.W1, b = bits.Sub64(u.W1, v.W1, b)
	r.W2, _ = bits.Sub64(u.W2, v.W2, b)
	return r
}

// MulUint64 returns u*v mod 2^192.
func (u U192) MulUint64(v uint64) U192 {
	var r U192
	var hi0, hi1 uint64
	hi0, r.W0 = bits.Mul64(u.W0, v)
	hi1, r.W1 = bits.Mul64(u.W1, v)
	_, r.W2 = bits.Mul64(u.W2, v)
	var c uint64
	r.W1, c = bits.Add64(r.W1, hi0, 0)
	r.W2, _ = bits.Add64(r.W2, hi1, c)
	return r
}

// Lsh returns u<<n mod 2^192.
func (u U192) Lsh(n uint) U192 {
	switch {
	case n == 0:
		return u
	case n >= 192:
		return U192{}
	case n >= 128:
		return U192{W2: u.W0 << (n - 128)}
	case n == 64:
		return U192{W1: u.W0, W2: u.W1}
	case n > 64:
		n -= 64
		return U192{
			W1: u.W0 << n,
			W2: u.W1<<n | u.W0>>(64-n),
		}
	default:
		return U192{
			W0: u.W0 << n,
			W1: u.W1<<n | u.W0>>(64-n),
			W2: u.W2<<n | u.W1>>(64-n),
		}
	}
}

// Rsh returns u>>n.
func (u U192) Rsh(n uint) U192 {
	switch {
	case n == 0:
		return u
	case n >= 192:
		return U192{}
	case n >= 128:
		return U192{W0: u.W2 >> (n - 128)}
	case n == 64:
		return U192{W0: u.W1, W1: u.W2}
	case n > 64:
		n -= 64
		return U192{
			W0: u.W1>>n | u.W2<<(64-n),
			W1: u.W2 >> n,
		}
	default:
		return U192{
			W0: u.W0>>n | u.W1<<(64-n),
			W1: u.W1>>n | u.W2<<(64-n),
			W2: u.W2 >> n,
		}
	}
}

// Or returns u|v.
func (u U192) Or(v U192) U192 { return U192{u.W0 | v.W0, u.W1 | v.W1, u.W2 | v.W2} }

// And returns u&v.
func (u U192) And(v U192) U192 { return U192{u.W0 & v.W0, u.W1 & v.W1, u.W2 & v.W2} }

// Xor returns u^v.
func (u U192) Xor(v U192) U192 { return U192{u.W0 ^ v.W0, u.W1 ^ v.W1, u.W2 ^ v.W2} }

// Not returns ^u.
func (u U192) Not() U192 { return U192{^u.W0, ^u.W1, ^u.W2} }

// Bit returns bit i of u (0 or 1). Bits >= 192 are zero.
func (u U192) Bit(i int) uint {
	if i < 0 || i >= 192 {
		return 0
	}
	switch {
	case i < 64:
		return uint(u.W0>>uint(i)) & 1
	case i < 128:
		return uint(u.W1>>uint(i-64)) & 1
	default:
		return uint(u.W2>>uint(i-128)) & 1
	}
}

// SetBit returns u with bit i set to b (0 or 1).
func (u U192) SetBit(i int, b uint) U192 {
	if i < 0 || i >= 192 {
		return u
	}
	mask := Mask(i, 1)
	if b == 0 {
		return u.And(mask.Not())
	}
	return u.Or(mask)
}

// FlipBit returns u with bit i inverted.
func (u U192) FlipBit(i int) U192 {
	if i < 0 || i >= 192 {
		return u
	}
	return u.Xor(Mask(i, 1))
}

// Mask returns a U192 with width consecutive one-bits starting at bit
// offset. Mask(0, 192) is all ones.
func Mask(offset, width int) U192 {
	if width <= 0 || offset < 0 || offset >= 192 {
		return U192{}
	}
	if offset+width > 192 {
		width = 192 - offset
	}
	all := U192{^uint64(0), ^uint64(0), ^uint64(0)}
	return all.Rsh(uint(192 - width)).Lsh(uint(offset))
}

// Field extracts the width-bit unsigned field starting at bit offset.
// width must be <= 64.
func (u U192) Field(offset, width int) uint64 {
	if width <= 0 || width > 64 {
		panic("wideint: Field width out of range")
	}
	v := u.Rsh(uint(offset)).W0
	if width == 64 {
		return v
	}
	return v & (1<<uint(width) - 1)
}

// WithField returns u with the width-bit field at bit offset replaced by
// the low width bits of val. width must be <= 64.
func (u U192) WithField(offset, width int, val uint64) U192 {
	if width <= 0 || width > 64 {
		panic("wideint: WithField width out of range")
	}
	if width < 64 {
		val &= 1<<uint(width) - 1
	}
	cleared := u.And(Mask(offset, width).Not())
	return cleared.Or(FromUint64(val).Lsh(uint(offset)))
}

// Mod64 returns u mod m for m > 0.
func (u U192) Mod64(m uint64) uint64 {
	if m == 0 {
		panic("wideint: modulo by zero")
	}
	if m == 1 {
		return 0
	}
	r := u.W2 % m
	_, r = bits.Div64(r, u.W1, m)
	_, r = bits.Div64(r, u.W0, m)
	return r
}

// DivMod64 returns the quotient and remainder of u divided by m, m > 0.
func (u U192) DivMod64(m uint64) (U192, uint64) {
	if m == 0 {
		panic("wideint: division by zero")
	}
	if m == 1 {
		return u, 0
	}
	var q U192
	r := u.W2 % m
	q.W2 = u.W2 / m
	q.W1, r = bits.Div64(r, u.W1, m)
	q.W0, r = bits.Div64(r, u.W0, m)
	return q, r
}

// OnesCount returns the number of set bits in u.
func (u U192) OnesCount() int {
	return bits.OnesCount64(u.W0) + bits.OnesCount64(u.W1) + bits.OnesCount64(u.W2)
}

// BitLen returns the position of the highest set bit plus one, or 0 for zero.
func (u U192) BitLen() int {
	switch {
	case u.W2 != 0:
		return 128 + bits.Len64(u.W2)
	case u.W1 != 0:
		return 64 + bits.Len64(u.W1)
	default:
		return bits.Len64(u.W0)
	}
}

// Bytes returns u as 24 big-endian bytes.
func (u U192) Bytes() [24]byte {
	var b [24]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u.W2 >> uint(56-8*i))
		b[8+i] = byte(u.W1 >> uint(56-8*i))
		b[16+i] = byte(u.W0 >> uint(56-8*i))
	}
	return b
}

// FromBytes builds a U192 from up to 24 big-endian bytes.
func FromBytes(b []byte) U192 {
	var u U192
	for _, c := range b {
		u = u.Lsh(8).Or(FromUint64(uint64(c)))
	}
	return u
}

// String renders u as 0x-prefixed hexadecimal without leading zeros.
func (u U192) String() string {
	switch {
	case u.W2 != 0:
		return fmt.Sprintf("0x%x%016x%016x", u.W2, u.W1, u.W0)
	case u.W1 != 0:
		return fmt.Sprintf("0x%x%016x", u.W1, u.W0)
	default:
		return fmt.Sprintf("0x%x", u.W0)
	}
}
