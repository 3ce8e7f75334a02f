package prefetch

import (
	"testing"

	"droplet/internal/dram"
	"droplet/internal/mem"
)

func BenchmarkStreamerSequential(b *testing.B) {
	s := NewStreamer(DefaultStreamerConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(AccessInfo{VAddr: mem.LineAddrOf(i), StructureBit: true}, nil)
	}
}

func BenchmarkStreamerRandom(b *testing.B) {
	s := NewStreamer(DefaultStreamerConfig())
	addr := mem.Addr(0x1000_0000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr = addr*6364136223846793005 + 1442695040888963407
		s.Observe(AccessInfo{VAddr: mem.LineAddr(addr % (1 << 30))}, nil)
	}
}

func BenchmarkGHBObserve(b *testing.B) {
	g := NewGHB(DefaultGHBConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Observe(AccessInfo{VAddr: mem.LineAddrOf(i % 1024)}, nil)
	}
}

func BenchmarkVLDPObserve(b *testing.B) {
	v := NewVLDP(DefaultVLDPConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Observe(AccessInfo{VAddr: mem.LineAddrOf(i * 3)}, nil)
	}
}

func BenchmarkMPPOnRefill(b *testing.B) {
	as := mem.NewAddressSpace()
	str := as.Malloc("s", 64*mem.PageSize, mem.Structure)
	prop := as.Malloc("p", 64*mem.PageSize, mem.Property)
	ids := make([]uint32, 16)
	for i := range ids {
		ids[i] = uint32(i * 100)
	}
	chip := &benchChip{}
	m := NewMPP(DefaultMPPConfig(), as,
		func(_ mem.Addr, buf []uint32) []uint32 { return append(buf, ids...) },
		[]PropArray{{Base: prop.Base, Elem: 4, Count: prop.Size / 4}})
	m.Bind(chip)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pa, _ := as.Translate(str.Base)
		m.OnRefill(refillAt(pa, str.Base, int64(i*100)))
	}
}

type benchChip struct{}

func (benchChip) LineOnChip(mem.Addr) bool                                  { return false }
func (benchChip) CopyLLCToL2(int, mem.Addr, mem.DataType, int64, bool) bool { return false }
func (benchChip) IssueDRAMPrefetch(core int, p, v mem.Addr, dt mem.DataType, now int64, f bool) int64 {
	return now + 100
}

// refillAt builds a CBit structure refill for benchmarks.
func refillAt(paddr, vaddr mem.Addr, t int64) dram.Refill {
	return dram.Refill{Addr: paddr, VAddr: vaddr, CBit: true, Prefetch: true, DType: mem.Structure, ReadyAt: t, IssuedAt: t - 100}
}
