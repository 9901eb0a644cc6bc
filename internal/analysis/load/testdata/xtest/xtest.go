// Package xtest is a loader fixture: an external test package that
// reaches an unexported declaration through export_test.go.
package xtest

func hidden() int { return 7 }

// Shown is what the package exports to everyone.
func Shown() int { return hidden() }
