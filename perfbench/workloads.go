package main

import (
	"context"
	"fmt"
	"time"

	"hwtwbg"
)

// workload is one closed-loop input set. Each stresses a different
// layer; perfbench/README.md says why each exists.
type workload struct {
	name string
	// names returns client i's resources (for transfer, the shared
	// accounts).
	names func(i int) []hwtwbg.ResourceID
	// open sets up a fresh instance of the program for the clients.
	open func(ctx context.Context, clients int) (system, error)
	// quota is the committed transactions of one timed round. A round
	// ends at its quota, so state that grows with commits (transfer's
	// WAL and history) is the same size at the end of every round on
	// every commit of the program, however fast it runs.
	quota int64
	// warm is the transactions run untimed after set-up, as part of it.
	warm int64
}

var workloads = []workload{
	{
		name:  "uncontended",
		names: func(i int) []hwtwbg.ResourceID { return resourceNames(fmt.Sprintf("u%d/", i), 4096) },
		open: func(_ context.Context, _ int) (system, error) {
			return openManager(hwtwbg.Options{Period: 20 * time.Millisecond}, false), nil
		},
		quota: 400_000,
		warm:  20_000,
	},
	{
		name:  "transfer",
		names: func(int) []hwtwbg.ResourceID { return resourceNames("acct/", bankAccounts) },
		open: func(ctx context.Context, _ int) (system, error) {
			return openBank(ctx, resourceNames("acct/", bankAccounts))
		},
		quota: 16_000,
		warm:  1_000,
	},
	{
		name:  "wire",
		names: func(i int) []hwtwbg.ResourceID { return resourceNames(fmt.Sprintf("w%d/", i), 4096) },
		open: func(_ context.Context, clients int) (system, error) {
			return openWire(hwtwbg.Options{Period: 20 * time.Millisecond}, true, clients)
		},
		quota: 30_000,
		warm:  2_000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
