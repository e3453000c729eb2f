package core

// Test-only exports: the external core_test package replays churn
// traces built by internal/experiments (which imports core, so those
// tests cannot live in package core) against the re-mine oracle.
var (
	RemineWindows      = remineWindows
	AssertWindowsMatch = assertWindowsMatch
)
