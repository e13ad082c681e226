package lintdoc

import "time"

// This fixture stands in for an hmtx package outside the simulation scope
// (see simscope.Covers): the rules do not apply here.
func stamp() int64 {
	return time.Now().UnixNano()
}
