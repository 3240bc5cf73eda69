package apps

// InputBuilds exposes the derivation build counter (inputs.go) to the
// external tests of this package.
func InputBuilds() int64 { return inputBuilds.Load() }
