// Package diag is a driver-test fixture: the test analyzer reports its
// function declarations out of source order.
package diag

func Marked() int { return 1 }

func Plain() int { return 2 }
