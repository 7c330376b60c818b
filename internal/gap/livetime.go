package gap

import (
	"errors"
	"time"
)

var errNoFragments = errors.New("gap: no fragments")

func timeNow() time.Time                  { return time.Now() }
func timeSince(t time.Time) time.Duration { return time.Since(t) }
