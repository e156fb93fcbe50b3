package engine

import (
	"errors"
	"testing"
	"time"
)

// TestRetryPolicyTranslation pins the single retry surface: a nil
// Retry means the documented defaults and an explicit policy is taken
// literally — the zero policy is "no retries", not the defaults.
func TestRetryPolicyTranslation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want RetryPolicy
	}{
		{"nil policy means defaults", Config{},
			RetryPolicy{Attempts: DefaultRetryAttempts, Backoff: DefaultBackoff}},
		{"explicit policy is literal", Config{Retry: &RetryPolicy{Attempts: 5, Backoff: time.Second}},
			RetryPolicy{Attempts: 5, Backoff: time.Second}},
		{"explicit zero policy means zero, not defaults", Config{Retry: &RetryPolicy{}},
			RetryPolicy{}},
		{"attempts without backoff stays literal", Config{Retry: &RetryPolicy{Attempts: 1}},
			RetryPolicy{Attempts: 1}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.cfg.retryPolicy()
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("retryPolicy() = %+v, want %+v", got, tt.want)
			}
		})
	}
	t.Run("negative explicit values are config errors", func(t *testing.T) {
		for name, cfg := range map[string]Config{
			"attempts":    {Retry: &RetryPolicy{Attempts: -1}},
			"backoff":     {Retry: &RetryPolicy{Backoff: -time.Second}},
			"max backoff": {Retry: &RetryPolicy{MaxBackoff: -time.Second}},
		} {
			if _, err := cfg.retryPolicy(); !errors.Is(err, ErrConfig) {
				t.Errorf("%s: err = %v, want ErrConfig", name, err)
			}
		}
	})
}

// TestRetryDelayJitterBounds pins the backoff computation: every delay
// is positive and within the jitter window min(Backoff<<attempt,
// MaxBackoff) — including attempt counts where the shift overflows,
// which used to skip the sleep entirely and turn the retry loop hot.
func TestRetryDelayJitterBounds(t *testing.T) {
	p := RetryPolicy{Attempts: 1 << 30, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}
	for _, attempt := range []int{0, 1, 2, 5, 10, 31, 32, 62, 63, 64, 100, 1 << 20} {
		for i := 0; i < 64; i++ {
			d := p.delay(attempt)
			if d <= 0 {
				t.Fatalf("delay(%d) = %v, want > 0 (overflow must clamp, not skip)", attempt, d)
			}
			window := p.Backoff << uint(attempt)
			if attempt >= 6 || window > p.MaxBackoff {
				// 50ms<<6 = 3.2s > cap: the window saturates.
				window = p.MaxBackoff
			}
			if d > window {
				t.Fatalf("delay(%d) = %v, want <= window %v", attempt, d, window)
			}
		}
	}
	t.Run("zero cap adopts the default", func(t *testing.T) {
		p := RetryPolicy{Backoff: time.Second}
		for i := 0; i < 64; i++ {
			if d := p.delay(200); d <= 0 || d > DefaultMaxBackoff {
				t.Fatalf("delay = %v, want in (0, %v]", d, DefaultMaxBackoff)
			}
		}
	})
	t.Run("base above cap clamps to cap", func(t *testing.T) {
		p := RetryPolicy{Backoff: time.Hour, MaxBackoff: 10 * time.Millisecond}
		for i := 0; i < 64; i++ {
			if d := p.delay(0); d <= 0 || d > 10*time.Millisecond {
				t.Fatalf("delay = %v, want in (0, 10ms]", d)
			}
		}
	})
	t.Run("no base means no sleep", func(t *testing.T) {
		if d := (RetryPolicy{Attempts: 3}).delay(2); d != 0 {
			t.Errorf("delay = %v, want 0", d)
		}
	})
}

// TestHistogramBuckets pins the bin layout: bucket 0 is sub-microsecond,
// each following bucket doubles, and out-of-range values clamp.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{2 * time.Microsecond, 2},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Millisecond, 10},
		{time.Second, 20},
		{100 * time.Hour, histBuckets - 1},
	}
	for _, tt := range cases {
		if got := histBucket(tt.d); got != tt.want {
			t.Errorf("histBucket(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
	for i := 1; i < histBuckets; i++ {
		if histBucket(bucketLow(i)) != i {
			t.Errorf("bucketLow(%d) = %v does not map back to its bucket", i, bucketLow(i))
		}
	}
}

// TestHistogramSnapshot checks observe/snapshot round-trips, Mean, and
// the upper-bound Quantile estimate.
func TestHistogramSnapshot(t *testing.T) {
	var h histogram
	if got := h.snapshot(); got.Count != 0 || got.Mean() != 0 || got.Quantile(0.5) != 0 {
		t.Errorf("empty histogram: %+v", got)
	}
	h.observe(-time.Second) // clamped to 0
	for i := 0; i < 9; i++ {
		h.observe(time.Millisecond)
	}
	snap := h.snapshot()
	if snap.Count != 10 {
		t.Fatalf("Count = %d, want 10", snap.Count)
	}
	if want := 9 * time.Millisecond; snap.Sum != want {
		t.Errorf("Sum = %v, want %v", snap.Sum, want)
	}
	if got := snap.Mean(); got != 900*time.Microsecond {
		t.Errorf("Mean = %v, want 900µs", got)
	}
	// The 50th percentile observation is a 1ms one; its bucket's upper
	// edge is 1024µs.
	if got := snap.Quantile(0.5); got != 1024*time.Microsecond {
		t.Errorf("Quantile(0.5) = %v, want 1.024ms", got)
	}
	// The 10th percentile is the clamped zero observation: bucket 0's
	// upper edge is 1µs.
	if got := snap.Quantile(0.05); got != time.Microsecond {
		t.Errorf("Quantile(0.05) = %v, want 1µs", got)
	}
	var total uint64
	for _, b := range snap.Buckets {
		total += b.Count
	}
	if total != snap.Count {
		t.Errorf("bucket counts sum to %d, Count is %d", total, snap.Count)
	}
}
