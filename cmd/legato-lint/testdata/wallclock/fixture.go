// Package wallclock is the wall-clock pass's fixture: one time.Now, which
// the pass flags, and time arithmetic, which it does not.
package wallclock

import "time"

func stamp() time.Time { return time.Now() }

func later(t time.Time, d time.Duration) time.Time { return t.Add(d) }
