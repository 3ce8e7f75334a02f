package cache

import (
	"testing"

	"droplet/internal/mem"
)

func BenchmarkAccessHit(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 32 << 10, Assoc: 8, LatencyTag: 1, LatencyData: 4})
	c.Fill(0x1000, mem.Property, 0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(0x1000, mem.Property, false, int64(i))
	}
}

func BenchmarkAccessMissAndFill(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 32 << 10, Assoc: 8, LatencyTag: 1, LatencyData: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := mem.LineAddrOf(i)
		if _, ok := c.Access(addr, mem.Structure, false, int64(i)); !ok {
			c.Fill(addr, mem.Structure, int64(i), false)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 32 << 10, Assoc: 16, LatencyTag: 1, LatencyData: 4})
	for i := 0; i < 512; i++ {
		c.Fill(mem.LineAddrOf(i), mem.Property, 0, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(mem.LineAddrOf(i & 511))
	}
}

// BenchmarkAccessMissAndFillPolicy measures the demand miss+fill path
// under each replacement policy (lru doubles as the regression anchor
// for the monomorphic dispatch: it must match BenchmarkAccessMissAndFill).
func BenchmarkAccessMissAndFillPolicy(b *testing.B) {
	for _, k := range AllKinds() {
		b.Run(k.String(), func(b *testing.B) {
			c := New(Config{Name: "b", SizeBytes: 32 << 10, Assoc: 8, LatencyTag: 1, LatencyData: 4, Policy: k, Seed: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := mem.LineAddrOf(i)
				if _, ok := c.Access(addr, mem.Structure, false, int64(i)); !ok {
					c.Fill(addr, mem.Structure, int64(i), false)
				}
			}
		})
	}
}

// BenchmarkAccessHitPolicy measures the head-way demand hit under each
// policy (the dominant operation in graph kernels).
func BenchmarkAccessHitPolicy(b *testing.B) {
	for _, k := range AllKinds() {
		b.Run(k.String(), func(b *testing.B) {
			c := New(Config{Name: "b", SizeBytes: 32 << 10, Assoc: 8, LatencyTag: 1, LatencyData: 4, Policy: k, Seed: 1})
			c.Fill(0x1000, mem.Property, 0, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(0x1000, mem.Property, false, int64(i))
			}
		})
	}
}
