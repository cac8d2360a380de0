package sim

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count drops back to at most
// baseline, proving the engine leaked nothing.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d now, baseline %d", runtime.NumGoroutine(), baseline)
}

func TestRunRecoversSubjectPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	res, err := Runner{Seed: 1, N: 500, Workers: 8}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		if i == 137 {
			panic("poisoned subject model")
		}
		return Outcome{Heeded: true}, nil
	})
	if res != nil {
		t.Errorf("res = %+v, want nil", res)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Subject != 137 {
		t.Errorf("PanicError.Subject = %d, want 137", pe.Subject)
	}
	if pe.Value != "poisoned subject model" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Error("PanicError.Stack does not look like a stack trace")
	}
	if want := "sim: subject 137 panicked: poisoned subject model"; pe.Error() != want {
		t.Errorf("Error() = %q, want %q", pe.Error(), want)
	}
	waitGoroutines(t, baseline)
}

func TestRunPanicLowestSubjectWins(t *testing.T) {
	// Two poisoned subjects: the reported one must be the lower index at
	// every worker count, exactly like ordinary subject errors.
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		_, err := Runner{Seed: 2, N: 300, Workers: workers}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
			if i == 250 || i == 41 {
				panic(i)
			}
			return Outcome{Heeded: true}, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Subject != 41 {
			t.Errorf("workers=%d: panicked subject %d, want 41 (lowest wins)", workers, pe.Subject)
		}
	}
}

func TestRunPanicMixedWithError(t *testing.T) {
	// A panic at a lower subject index beats an error at a higher one.
	_, err := Runner{Seed: 3, N: 100, Workers: 4}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		if i == 10 {
			panic("first")
		}
		if i == 60 {
			return Outcome{}, errors.New("higher-index error")
		}
		return Outcome{Heeded: true}, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Subject != 10 {
		t.Fatalf("err = %v, want PanicError for subject 10", err)
	}
}

func TestRunTimeout(t *testing.T) {
	baseline := runtime.NumGoroutine()
	slow := func(rng *rand.Rand, i int) (Outcome, error) {
		time.Sleep(2 * time.Millisecond)
		return Outcome{Heeded: true}, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	res, err := Runner{Seed: 4, N: 10000, Workers: 2}.Run(ctx, slow)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Errorf("res = %+v, want nil: a timed-out run keeps no partial result", res)
	}
	waitGoroutines(t, baseline)
}

func TestRunSubjectErrorFatalEvenWithAllowPartial(t *testing.T) {
	ru := Runner{Seed: 7, N: 100, Workers: 2}
	res, err := ru.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		if i == 50 {
			return Outcome{}, errors.New("scenario bug")
		}
		return Outcome{Heeded: true}, nil
	})
	if res != nil {
		t.Errorf("res = %+v, want nil: subject errors are fatal", res)
	}
	if err == nil || !strings.Contains(err.Error(), "subject 50") {
		t.Errorf("err = %v, want subject 50 error", err)
	}
}

func TestRunCompletedFullRun(t *testing.T) {
	res, err := Runner{Seed: 8, N: 64}.Run(context.Background(), func(rng *rand.Rand, i int) (Outcome, error) {
		return Outcome{Heeded: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 64 || res.Heed.Trials != 64 {
		t.Errorf("Completed = %d, Heed.Trials = %d, want 64/64", res.Completed, res.Heed.Trials)
	}
}

func TestRunTimeoutDoesNotFirePrematurely(t *testing.T) {
	// A generous deadline must not disturb a fast run.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := Runner{Seed: 9, N: 200}.Run(ctx, func(rng *rand.Rand, i int) (Outcome, error) {
		return Outcome{Heeded: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 200 {
		t.Errorf("Completed = %d, want 200", res.Completed)
	}
}
