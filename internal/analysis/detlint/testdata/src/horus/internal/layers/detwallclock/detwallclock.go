//horus:wallclock — fixture: stands in for a package that really talks to the kernel
package detwallclock

import "time"

// Bridge is exempt: every non-test file of the package carries the
// marker above its package clause, the way udpnet and chaosnet do.
func Bridge() time.Time { return time.Now() }
