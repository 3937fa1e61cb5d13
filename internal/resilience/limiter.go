package resilience

// Limiter bounds in-flight work with a non-blocking semaphore: callers that
// cannot get a slot are shed immediately rather than queued, keeping
// latency bounded under overload (the serve layer turns a failed acquire
// into 429 + Retry-After).
type Limiter struct {
	sem chan struct{}
}

// NewLimiter returns a limiter admitting at most n concurrent holders.
// n <= 0 returns nil, which every method treats as "unlimited".
func NewLimiter(n int) *Limiter {
	if n <= 0 {
		return nil
	}
	return &Limiter{sem: make(chan struct{}, n)}
}

// TryAcquire takes a slot if one is free; it never blocks.
func (l *Limiter) TryAcquire() bool {
	if l == nil {
		return true
	}
	select {
	case l.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Release returns a slot taken by TryAcquire.
func (l *Limiter) Release() {
	if l == nil {
		return
	}
	<-l.sem
}

// InFlight reports the number of currently held slots.
func (l *Limiter) InFlight() int {
	if l == nil {
		return 0
	}
	return len(l.sem)
}
