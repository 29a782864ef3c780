package comm

import (
	"errors"
	"math"
	"testing"
)

// TestVarintErrors pins the hardening contract of the varint decoders:
// truncated and overlong encodings must surface as typed errors, never as
// silently wrong values, because these bytes cross the simulated process
// boundary.
func TestVarintErrors(t *testing.T) {
	if _, _, err := UvarintAt(nil, 0); !errors.Is(err, ErrVarintTruncated) {
		t.Errorf("empty uvarint: got %v, want ErrVarintTruncated", err)
	}
	if _, _, err := VarintAt([]byte{0x80, 0x80}, 0); !errors.Is(err, ErrVarintTruncated) {
		t.Errorf("dangling continuation: got %v, want ErrVarintTruncated", err)
	}
	over := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, _, err := UvarintAt(over, 0); !errors.Is(err, ErrVarintOverflow) {
		t.Errorf("11-byte uvarint: got %v, want ErrVarintOverflow", err)
	}
	if _, _, err := UvarintAt([]byte{1, 2, 3}, 7); !errors.Is(err, ErrVarintTruncated) {
		t.Errorf("offset past end: got %v, want ErrVarintTruncated", err)
	}
	if _, _, err := UvarintAt([]byte{1, 2, 3}, -1); !errors.Is(err, ErrVarintTruncated) {
		t.Errorf("negative offset: got %v, want ErrVarintTruncated", err)
	}
}

// FuzzVarintRoundTrip interleaves signed and unsigned varints in one buffer
// and decodes them back, checking values and offsets exactly — the same
// discipline as FuzzBytesRoundTrip for the fixed-width encoders.
func FuzzVarintRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0))
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64))
	f.Add(uint64(1)<<35, int64(-1))
	f.Fuzz(func(t *testing.T, u uint64, v int64) {
		b := AppendUvarint(nil, u)
		b = AppendVarint(b, v)
		b = AppendUvarint(b, u^uint64(v))

		gu, off, err := UvarintAt(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		gv, off, err := VarintAt(b, off)
		if err != nil {
			t.Fatal(err)
		}
		gx, off, err := UvarintAt(b, off)
		if err != nil {
			t.Fatal(err)
		}
		if off != len(b) {
			t.Fatalf("decoded %d of %d bytes", off, len(b))
		}
		if gu != u || gv != v || gx != u^uint64(v) {
			t.Fatalf("round-trip changed values: %d %d %d -> %d %d %d", u, v, u^uint64(v), gu, gv, gx)
		}
	})
}

// TestBufPool exercises the payload pool's ownership contract: recycled
// buffers come back empty, and undersized and oversized buffers are dropped.
func TestBufPool(t *testing.T) {
	b := append(GetBuf(), make([]byte, 128)...)
	PutBuf(b)
	got := GetBuf()
	if len(got) != 0 {
		t.Fatalf("recycled buffer has len %d, want 0", len(got))
	}
	// The recycle is best-effort (sync.Pool may drop under GC pressure), so
	// a recycled buffer is not required back; but a dropped one must never
	// come back.
	PutBuf(make([]byte, 8)) // below the 64-byte floor: dropped
	PutBuf(nil)             // nil: dropped
	PutBuf(make([]byte, 0, maxPooledCap+1))
	for i := 0; i < 4; i++ {
		if g := GetBuf(); g != nil && (cap(g) < 64 || cap(g) > maxPooledCap) {
			t.Fatalf("GetBuf returned a dropped buffer of cap %d", cap(g))
		}
	}
}
