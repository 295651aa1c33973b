package snapshot

// WalkFingerprint exposes one uncached walk, the reference the memo is
// tested against.
var WalkFingerprint = walkFingerprint
