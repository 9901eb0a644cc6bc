//horus:wallclock — fixture: the second file of a whole-package bridge
package detwallclock

import "time"

// After waits on the wall clock through the first file's reader.
func After(d time.Duration) time.Duration {
	start := Bridge()
	time.Sleep(d)
	return time.Since(start)
}
