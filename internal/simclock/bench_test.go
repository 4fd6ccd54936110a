package simclock

import (
	"testing"
	"time"
)

func BenchmarkScheduleAndStep(b *testing.B) {
	start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	fn := func() {}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.After(time.Duration(i%1000)*time.Millisecond, fn); err != nil {
			b.Fatal(err)
		}
		if i%2 == 1 { // keep the heap bounded
			e.Step()
			e.Step()
		}
	}
}

func BenchmarkCancel(b *testing.B) {
	start := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	e := NewEngine(start)
	fn := func() {}
	handles := make([]Handle, 0, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := e.After(time.Hour, fn)
		if err != nil {
			b.Fatal(err)
		}
		handles = append(handles, h)
		if len(handles) == 1024 {
			for _, h := range handles {
				e.Cancel(h)
			}
			handles = handles[:0]
		}
	}
}
