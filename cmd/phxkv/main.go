// Command phxkv is an interactive demo of the kvstore analogue under
// PHOENIX recovery: a small REPL over the simulated store where you can
// set/get keys, crash the process in different ways, and watch PHOENIX
// preserve (or, for mid-update crashes, refuse to preserve) the dictionary.
//
// Commands:
//
//	set K V       store a key
//	get K         read a key
//	del K         delete a key
//	len           number of keys
//	crash         null-dereference crash (R3 class)
//	hang          infinite loop, ended by the watchdog (R4 class)
//	corrupt       unsanitized overwrite inside the unsafe region (R2 class)
//	stats         harness statistics and the recovery's cleanup
//	quit
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"time"

	"phoenix/internal/apps/kvstore"
	"phoenix/internal/core"
	"phoenix/internal/kernel"
	"phoenix/internal/recovery"
	"phoenix/internal/workload"
)

// replGen is a placeholder generator; the REPL injects requests directly.
type replGen struct{}

func (replGen) Next() *workload.Request { return &workload.Request{Op: workload.OpRead, Key: "_"} }

func (replGen) Clone(seed int64) workload.Generator { return replGen{} }

func main() {
	m := kernel.NewMachine(1)
	kv := kvstore.New(kvstore.Config{Cleanup: true}, nil)
	cfg := recovery.Config{
		Mode: recovery.ModePhoenix, UnsafeRegions: true,
		WatchdogTimeout: 2 * time.Second,
	}
	h := recovery.NewHarness(m, cfg, kv, replGen{}, nil)
	if err := h.Boot(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("phxkv — PHOENIX-protected KV store (type 'help')")

	// Every command goes through ServeRequest, like any other client: a
	// crash is recovered there, and a recovery's cleanup frees its garbage
	// at the first request after its background pass.
	exec := func(req *workload.Request) {
		failures := h.Stat.Failures
		ok, eff, err := h.ServeRequest(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recovery failed:", err)
			os.Exit(1)
		}
		if h.Stat.Failures == failures {
			fmt.Printf("ok=%v hit=%v (t=%v)\n", ok, eff, m.Clock.Now())
			return
		}
		crash := lastCrash(h)
		fmt.Printf("!! %s\n", crash.Detail)
		fmt.Printf("recovered in %v (simulated); phoenix restarts so far: %d, fallbacks: %d\n",
			m.Clock.Now()-crash.At, h.Stat.PhoenixRestarts, h.Stat.UnsafeFallbacks)
	}

	sc := bufio.NewScanner(os.Stdin)
	for fmt.Print("> "); sc.Scan(); fmt.Print("> ") {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "set":
			if len(fields) != 3 {
				fmt.Println("usage: set K V")
				continue
			}
			exec(&workload.Request{Op: workload.OpInsert, Key: fields[1], Value: []byte(fields[2])})
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get K")
				continue
			}
			exec(&workload.Request{Op: workload.OpRead, Key: fields[1]})
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del K")
				continue
			}
			exec(&workload.Request{Op: workload.OpDelete, Key: fields[1]})
		case "len":
			fmt.Println(kv.Len())
		case "crash":
			kv.ArmBug("R3")
			exec(&workload.Request{Op: workload.OpRead, Key: "_"})
		case "hang":
			kv.ArmBug("R4")
			exec(&workload.Request{Op: workload.OpRead, Key: "_"})
		case "corrupt":
			kv.ArmBug("R2")
			exec(&workload.Request{Op: workload.OpInsert, Key: "_", Value: []byte("_")})
		case "stats":
			fmt.Printf("phoenix restarts: %d, unsafe fallbacks: %d, failures: %d, sim time: %v\n",
				h.Stat.PhoenixRestarts, h.Stat.UnsafeFallbacks, h.Stat.Failures, m.Clock.Now())
			fmt.Println(cleanupStatus(h.Runtime().Cleanup()))
		case "help":
			fmt.Println("set K V | get K | del K | len | crash | hang | corrupt | stats | quit")
		case "quit", "exit":
			return
		default:
			fmt.Println("unknown command (try 'help')")
		}
	}
}

// lastCrash returns the harness's most recent crash event.
func lastCrash(h *recovery.Harness) recovery.Event {
	for i := len(h.Stat.Events) - 1; i >= 0; i-- {
		if e := h.Stat.Events[i]; e.Kind == recovery.EvCrash {
			return e
		}
	}
	return recovery.Event{}
}

// cleanupStatus describes the live incarnation's mark-and-sweep cleanup.
func cleanupStatus(c *core.Cleanup) string {
	switch {
	case c == nil:
		return "cleanup: none in this incarnation"
	case !c.Reclaimed:
		return fmt.Sprintf("cleanup: pending (fork %v); frees land at the first request at or after t=%v", c.Fork, c.Due)
	}
	return fmt.Sprintf("cleanup: reclaimed %d chunks (%d bytes) at t=%v", c.FreedChunks, c.FreedBytes, c.ReclaimedAt)
}
