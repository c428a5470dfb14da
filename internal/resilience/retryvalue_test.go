package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestRetryValue is the table-driven suite for the context-aware,
// value-returning retry variant. The cancel and deadline rows exercise
// the paths the sweep workers depend on: a backoff sleep must abort the
// moment the per-spec context is canceled or its deadline passes, and
// the returned error must wrap the context error so callers can tell a
// drained worker from an exhausted retry.
func TestRetryValue(t *testing.T) {
	transient := errors.New("transient")
	cases := []struct {
		name string
		// ctx builds the context (and optionally schedules its demise).
		ctx func(t *testing.T) (context.Context, context.CancelFunc)
		// failures before fn succeeds; -1 means fn always fails.
		failures int
		policy   Policy

		wantVal      int
		wantErr      error  // errors.Is target; nil means success
		wantErrPart  string // substring of the error text
		wantAttempts int
	}{
		{
			name:         "first_attempt_success",
			ctx:          background,
			failures:     0,
			policy:       Policy{MaxAttempts: 3, Sleep: noSleep},
			wantVal:      42,
			wantAttempts: 1,
		},
		{
			name:         "transient_then_success",
			ctx:          background,
			failures:     2,
			policy:       Policy{MaxAttempts: 4, Sleep: noSleep},
			wantVal:      42,
			wantAttempts: 3,
		},
		{
			name:         "attempts_exhausted",
			ctx:          background,
			failures:     -1,
			policy:       Policy{MaxAttempts: 3, Sleep: noSleep},
			wantErr:      transient,
			wantErrPart:  "3 attempts exhausted",
			wantAttempts: 3,
		},
		{
			name: "cancel_during_sleep",
			ctx: func(t *testing.T) (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(10 * time.Millisecond)
					cancel()
				}()
				return ctx, cancel
			},
			failures: -1,
			// Real sleep (nil Sleep → sleepCtx) with a backoff far longer
			// than the cancel delay: the abort must come from inside the
			// sleep, not from the next attempt's pre-check.
			policy:       Policy{MaxAttempts: 3, BaseDelay: 10 * time.Second},
			wantErr:      context.Canceled,
			wantErrPart:  "aborted after attempt 1",
			wantAttempts: 1,
		},
		{
			name: "deadline_exceeded_during_sleep",
			ctx: func(t *testing.T) (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 10*time.Millisecond)
			},
			failures:     -1,
			policy:       Policy{MaxAttempts: 3, BaseDelay: 10 * time.Second},
			wantErr:      context.DeadlineExceeded,
			wantErrPart:  "aborted after attempt 1",
			wantAttempts: 1,
		},
		{
			name: "deadline_already_expired",
			ctx: func(t *testing.T) (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, cancel
			},
			failures:     -1,
			policy:       Policy{MaxAttempts: 3, Sleep: noSleep},
			wantErr:      context.Canceled,
			wantErrPart:  "aborted before attempt 1",
			wantAttempts: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := tc.ctx(t)
			defer cancel()
			attempts := 0
			val, err := RetryValue(ctx, tc.policy, func(context.Context) (int, error) {
				attempts++
				if tc.failures < 0 || attempts <= tc.failures {
					return 0, fmt.Errorf("attempt %d: %w", attempts, transient)
				}
				return 42, nil
			})
			if attempts != tc.wantAttempts {
				t.Errorf("attempts = %d, want %d", attempts, tc.wantAttempts)
			}
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("RetryValue: %v", err)
				}
				if val != tc.wantVal {
					t.Errorf("val = %d, want %d", val, tc.wantVal)
				}
				return
			}
			if err == nil {
				t.Fatal("RetryValue succeeded, want error")
			}
			if val != 0 {
				t.Errorf("failed retry returned non-zero value %d", val)
			}
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("error %v does not wrap %v", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErrPart) {
				t.Errorf("error %q missing %q", err, tc.wantErrPart)
			}
		})
	}
}

// TestRetryValueContextPropagates verifies fn receives the caller's
// context, so a per-spec deadline reaches the simulation it guards.
func TestRetryValueContextPropagates(t *testing.T) {
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "watchdog")
	_, err := RetryValue(ctx, Policy{MaxAttempts: 1, Sleep: noSleep}, func(ctx context.Context) (string, error) {
		if ctx.Value(key{}) != "watchdog" {
			t.Error("fn did not receive the caller's context")
		}
		return "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func background(*testing.T) (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

func noSleep(context.Context, time.Duration) error { return nil }
