package tcptransport

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain is the package's goroutine-leak guard: once every test has
// run, each node they started must have taken its goroutines (accept
// and read loops, ticker, writers) with it. A passing run that leaves
// goroutines behind for 5 s fails, with their stacks.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine leak: %d running after the tests, %d before\n%s\n", after, before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
