package stats

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	for i := 0; i < b.N; i++ {
		h.Record(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkHistogramQuantile(b *testing.B) {
	var h Histogram
	for i := 0; i < 100000; i++ {
		h.Record(time.Duration(i%5000) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}

func BenchmarkZipfianNext(b *testing.B) {
	z := NewZipfian(1_000_000, ZipfTheta)
	src := NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next(src)
	}
}

func BenchmarkScrambledZipfianNext(b *testing.B) {
	z := NewScrambledZipfian(1_000_000, ZipfTheta)
	src := NewSource(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next(src)
	}
}

func BenchmarkRateEstimatorAdd(b *testing.B) {
	r := NewRateEstimator(10*time.Second, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Add(time.Duration(i)*time.Microsecond, 1)
	}
}

// BenchmarkHeavyHittersObserve feeds the monitor's 128-entry sketch the
// two streams that bound what it sees: zipf is YCSB's key popularity
// over 100 000 keys (hot keys hit, the long tail misses and evicts);
// allmiss cycles 1 024 keys round-robin so every observation evicts.
func BenchmarkHeavyHittersObserve(b *testing.B) {
	keys := make([]string, 100_000)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.Run("zipf", func(b *testing.B) {
		h := NewHeavyHitters(128)
		z := NewZipfian(uint64(len(keys)), ZipfTheta)
		src := NewSource(1)
		stream := make([]uint32, 1<<16) // drawn ahead: the loop times Observe only
		for i := range stream {
			stream[i] = uint32(z.Next(src))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(keys[stream[i%len(stream)]])
		}
	})
	b.Run("allmiss", func(b *testing.B) {
		h := NewHeavyHitters(128)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(keys[i%1024])
		}
	})
}
