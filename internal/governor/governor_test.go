package governor

import (
	"context"
	"testing"
)

// bailsWith runs f and returns the Bailout it panicked with, or nil.
func bailsWith(t *testing.T, f func()) *Bailout {
	t.Helper()
	var out *Bailout
	func() {
		defer func() {
			if r := recover(); r != nil {
				b, ok := AsBailout(r)
				if !ok {
					panic(r)
				}
				out = b
			}
		}()
		f()
	}()
	return out
}

func TestNilBudgetIsInert(t *testing.T) {
	var b *Budget
	b.Charge(1 << 30)
	b.Enter()
	b.Exit()
	b.Bind(context.Background())
	if b.Spent() != 0 || b.Limit() != 0 {
		t.Fatal("nil budget reports nonzero accounting")
	}
}

func TestFuelExhaustion(t *testing.T) {
	b := New(10, 0)
	bail := bailsWith(t, func() {
		for i := 0; i < 100; i++ {
			b.Charge(1)
		}
	})
	if bail == nil || bail.Reason != FuelExhausted {
		t.Fatalf("want FuelExhausted bailout, got %+v", bail)
	}
	// The guard trips on the first charge past the limit — always at
	// the same step, which is the whole point.
	if bail.Spent != 11 || bail.Limit != 10 {
		t.Fatalf("want spent=11 limit=10, got spent=%d limit=%d", bail.Spent, bail.Limit)
	}
}

func TestFuelDeterminism(t *testing.T) {
	run := func() int64 {
		b := New(1000, 0)
		bail := bailsWith(t, func() {
			for {
				b.Charge(3)
			}
		})
		return bail.Spent
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d exhausted at %d steps, first at %d", i, got, first)
		}
	}
}

func TestDepthGuard(t *testing.T) {
	b := New(0, 4)
	var rec func(n int)
	rec = func(n int) {
		b.Enter()
		if n > 0 {
			rec(n - 1)
		}
		b.Exit()
	}
	if bail := bailsWith(t, func() { rec(3) }); bail != nil {
		t.Fatalf("depth 4 within limit 4 bailed: %v", bail)
	}
	bail := bailsWith(t, func() { rec(10) })
	if bail == nil || bail.Reason != DepthExceeded {
		t.Fatalf("want DepthExceeded, got %+v", bail)
	}
	if bail.Depth != 5 {
		t.Fatalf("want trip at depth 5, got %d", bail.Depth)
	}
}

func TestFuelImpliesDepthGuard(t *testing.T) {
	b := New(1<<40, 0)
	var rec func()
	rec = func() {
		b.Enter()
		rec()
	}
	bail := bailsWith(t, func() { rec() })
	if bail == nil || bail.Reason != DepthExceeded {
		t.Fatalf("fuel-only budget must default a depth guard, got %+v", bail)
	}
	if bail.Depth != DefaultMaxDepth+1 {
		t.Fatalf("want trip at %d, got %d", DefaultMaxDepth+1, bail.Depth)
	}
}

func TestUnguardedBudgetCountsButNeverBails(t *testing.T) {
	b := New(0, 0)
	for i := 0; i < 5000; i++ {
		b.Charge(2)
	}
	if b.Spent() != 10000 {
		t.Fatalf("want 10000 spent, got %d", b.Spent())
	}
}

func TestCancellationPoll(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(0, 0)
	b.Bind(ctx)
	// Live context: charges sail through poll checkpoints.
	for i := int64(0); i < 3*DefaultPollEvery; i++ {
		b.Charge(1)
	}
	cancel()
	bail := bailsWith(t, func() {
		for i := int64(0); i <= DefaultPollEvery; i++ {
			b.Charge(1)
		}
	})
	if bail == nil || bail.Reason != Cancelled {
		t.Fatalf("want Cancelled within one poll interval, got %+v", bail)
	}
	if bail.Err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", bail.Err)
	}
}

func TestContextRoundTrip(t *testing.T) {
	b := New(7, 0)
	ctx := WithBudget(context.Background(), b)
	if got := FromContext(ctx); got != b {
		t.Fatalf("FromContext returned %p, want %p", got, b)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("empty context yielded budget %p", got)
	}
}

func TestBailoutStrings(t *testing.T) {
	cases := []struct {
		b    *Bailout
		want string
	}{
		{&Bailout{Reason: FuelExhausted, Spent: 11, Limit: 10}, "fuel exhausted after 11 steps (budget 10)"},
		{&Bailout{Reason: DepthExceeded, Depth: 513, Spent: 42}, "recursion depth 513 exceeded after 42 steps"},
		{&Bailout{Reason: Cancelled, Err: context.Canceled}, "cancelled: context canceled"},
		{&Bailout{Reason: Reason(99)}, "unknown(99)"},
	}
	for _, c := range cases {
		if got := c.b.Error(); got != c.want {
			t.Errorf("Error() = %q, want %q", got, c.want)
		}
	}
	if got := Reason(42).String(); got != "unknown(42)" {
		t.Errorf("Reason(42) = %q", got)
	}
}
