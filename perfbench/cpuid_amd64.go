package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

// cpuModel returns the processor brand string from CPUID.
func cpuModel() string {
	if max, _, _, _ := cpuid(0x80000000, 0); max < 0x80000004 {
		return "unknown"
	}
	var buf [48]byte
	for i := uint32(0); i < 3; i++ {
		a, b, c, d := cpuid(0x80000002+i, 0)
		for j, r := range []uint32{a, b, c, d} {
			binary.LittleEndian.PutUint32(buf[16*i+4*uint32(j):], r)
		}
	}
	return strings.TrimSpace(strings.TrimRight(string(buf[:]), "\x00"))
}

// llcBytes returns the size of the highest-level cache CPUID describes
// (Intel leaf 4, or AMD leaf 0x8000001D, which share a layout), or 0.
func llcBytes() int64 {
	maxBasic, _, _, _ := cpuid(0, 0)
	maxExt, _, _, _ := cpuid(0x80000000, 0)
	leaf := uint32(0)
	switch {
	case maxBasic >= 4:
		leaf = 4
	case maxExt >= 0x8000001D:
		leaf = 0x8000001D
	default:
		return 0
	}
	var best int64
	bestLevel := uint32(0)
	for sub := uint32(0); sub < 16; sub++ {
		a, b, c, _ := cpuid(leaf, sub)
		if a&0x1f == 0 {
			break
		}
		level := (a >> 5) & 7
		size := int64((b>>22)+1) * int64(((b>>12)&0x3ff)+1) * int64((b&0xfff)+1) * int64(c+1)
		if level > bestLevel || (level == bestLevel && size > best) {
			best, bestLevel = size, level
		}
	}
	return best
}
