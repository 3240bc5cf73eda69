package core

// CountCheckpointCopies adds, until stop is called, the pages each
// Checkpoint's snapshot holds to *held and the pages it copied to *copied.
func CountCheckpointCopies(held, copied *int) (stop func()) {
	checkpointHook = func(th *Thread, n int) {
		*held += th.ckpt.pages.Len()
		*copied += n
	}
	return func() { checkpointHook = nil }
}
