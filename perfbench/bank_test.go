package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"hwtwbg"
	"hwtwbg/kv"
)

func openTestBank(t *testing.T, hist *kv.History, wal *kv.WAL) *kv.Store {
	t.Helper()
	st := kv.Open(kv.Options{Shards: shards, DetectEvery: 10 * time.Millisecond, History: hist, WAL: wal})
	t.Cleanup(st.Close)
	err := st.Update(context.Background(), func(tx *kv.Tx) error {
		if err := tx.Put(context.Background(), "a", "60"); err != nil {
			return err
		}
		return tx.Put(context.Background(), "b", "40")
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCheckBank(t *testing.T) {
	ctx := context.Background()
	keys := []string{"a", "b"}
	move := func(st *kv.Store, a, b string) error {
		return st.Update(ctx, func(tx *kv.Tx) error {
			if err := tx.Put(ctx, a, "50"); err != nil {
				return err
			}
			return tx.Put(ctx, b, "50")
		})
	}

	t.Run("clean", func(t *testing.T) {
		hist, wal := kv.NewHistory(), kv.NewWAL()
		st := openTestBank(t, hist, wal)
		if err := move(st, "a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := checkBank(ctx, st, hist, wal, keys, 100); err != nil {
			t.Fatalf("clean run failed its check: %v", err)
		}
	})
	t.Run("unbalanced", func(t *testing.T) {
		hist, wal := kv.NewHistory(), kv.NewWAL()
		st := openTestBank(t, hist, wal)
		if err := st.Update(ctx, func(tx *kv.Tx) error { return tx.Put(ctx, "a", "61") }); err != nil {
			t.Fatal(err)
		}
		if err := checkBank(ctx, st, hist, wal, keys, 100); err == nil || !strings.Contains(err.Error(), "sum to 101") {
			t.Fatalf("unbalanced store passed: %v", err)
		}
	})
	t.Run("corrupted history", func(t *testing.T) {
		// Two stores recording into one history: the second store's
		// transaction read values the serial order never wrote.
		hist := kv.NewHistory()
		st := openTestBank(t, hist, kv.NewWAL())
		other := openTestBank(t, hist, nil)
		if err := move(st, "a", "b"); err != nil {
			t.Fatal(err)
		}
		if err := other.Update(ctx, func(tx *kv.Tx) error {
			_, _, err := tx.Get(ctx, "a")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if err := checkBank(ctx, st, hist, kv.NewWAL(), keys, 100); err == nil || !strings.Contains(err.Error(), "serializability") {
			t.Fatalf("corrupted history passed: %v", err)
		}
	})
	t.Run("wal mismatch", func(t *testing.T) {
		hist := kv.NewHistory()
		st := openTestBank(t, hist, kv.NewWAL())
		if err := checkBank(ctx, st, hist, kv.NewWAL(), keys, 100); err == nil || !strings.Contains(err.Error(), "WAL replay") {
			t.Fatalf("store passed against an empty WAL: %v", err)
		}
	})
}

func TestForestCheck(t *testing.T) {
	ctx := context.Background()
	lm := hwtwbg.Open(hwtwbg.Options{Shards: shards, Period: 5 * time.Millisecond})
	f, err := plantForest(ctx, lm, 16)
	if err != nil {
		t.Fatal(err)
	}
	for lm.Stats().Runs < 3 { // let the detector walk the forest
		time.Sleep(time.Millisecond)
	}
	if err := f.check(); err != nil {
		t.Fatalf("parked forest failed its check: %v", err)
	}
	// Ending a holder grants its waiter, which the check must catch.
	if err := f.holders[3].Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.check(); err == nil {
		t.Fatal("forest with a released waiter passed its check")
	}
	lm.Close()
	f.wait()
}
