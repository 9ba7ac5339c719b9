// Fixture: a file that never reads the clock (std::chrono appears
// only in this comment) must not sit on the allowlist.
int untimed() { return 0; }
