package detwallclock

import (
	"testing"
	"time"
)

// An unmarked test file neither breaks the bridge's package rule nor
// is checked itself.
func TestAfter(t *testing.T) {
	if got := After(time.Millisecond); got <= 0 || time.Since(Bridge()) < 0 {
		t.Fatal(got)
	}
	go func() {}()
}
