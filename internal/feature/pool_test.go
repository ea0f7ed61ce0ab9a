package feature

import "testing"

func TestBufferPoolRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 5000, 1 << 21, 1<<21 + 1} {
		buf := GetBuffer(n)
		if len(buf) != 0 {
			t.Fatalf("GetBuffer(%d) returned non-empty slice", n)
		}
		if cap(buf) < n {
			t.Fatalf("GetBuffer(%d) capacity %d too small", n, cap(buf))
		}
		PutBuffer(buf)
	}
	// A recycled buffer must satisfy its class capacity again.
	a := GetBuffer(1024)
	PutBuffer(a)
	b := GetBuffer(1024)
	if cap(b) < 1024 {
		t.Fatalf("recycled buffer capacity %d < 1024", cap(b))
	}
}

func TestBytePoolRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 70_000, 1 << 24, 1<<24 + 1} {
		buf := GetBytes(n)
		if len(buf) != 0 {
			t.Fatalf("GetBytes(%d) returned non-empty slice", n)
		}
		if cap(buf) < n {
			t.Fatalf("GetBytes(%d) capacity %d too small", n, cap(buf))
		}
		PutBytes(buf)
	}
	// A recycled block must satisfy its class capacity again.
	a := GetBytes(4096)
	PutBytes(a)
	b := GetBytes(4096)
	if cap(b) < 4096 {
		t.Fatalf("recycled block capacity %d < 4096", cap(b))
	}
}
