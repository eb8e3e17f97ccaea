package fleet

// BreakerState is a vantage circuit breaker's position.
type BreakerState uint8

const (
	// Closed: the vantage is healthy and receives primary shards.
	Closed BreakerState = iota
	// Open: the vantage tripped and is quarantined — no work until its
	// quarantine expires.
	Open
	// HalfOpen: the quarantine expired; the vantage gets a single trial
	// shard. Success closes the breaker, failure reopens it with a doubled
	// quarantine, so a flapping vantage is quarantined exponentially longer
	// each time it relapses.
	HalfOpen
)

var stateNames = [...]string{"closed", "open", "half_open"}

func (s BreakerState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// breakerConfig tunes a circuit breaker; every vantage runs defaultBreaker.
type breakerConfig struct {
	// threshold is how many consecutive heartbeat failures trip the breaker.
	threshold int
	// openRounds is the initial quarantine length in rounds; every failed
	// half-open trial doubles it, up to maxOpenRounds.
	openRounds    int
	maxOpenRounds int
}

var defaultBreaker = breakerConfig{threshold: 3, openRounds: 2, maxOpenRounds: 16}

// breaker is the closed → open → half-open state machine guarding one
// vantage. All transitions happen on the supervisor goroutine between scan
// waves, in fixed vantage order, so fleet rounds stay deterministic.
type breaker struct {
	cfg         breakerConfig
	state       BreakerState
	consecFails int
	quarantine  int // current quarantine length (rounds), doubles on relapse
	trialAt     int // first round at which a half-open trial may run
}

func newBreaker(cfg breakerConfig) breaker {
	return breaker{cfg: cfg, quarantine: cfg.openRounds}
}

// beginRound advances open → half-open when the quarantine has expired and
// returns the state the vantage enters the round with.
func (b *breaker) beginRound(round int) BreakerState {
	if b.state == Open && round >= b.trialAt {
		b.state = HalfOpen
	}
	return b.state
}

// success records a healthy heartbeat. A half-open trial success closes the
// breaker and resets the quarantine backoff. It reports whether the state
// changed.
func (b *breaker) success() bool {
	b.consecFails = 0
	if b.state == HalfOpen {
		b.state = Closed
		b.quarantine = b.cfg.openRounds
		return true
	}
	return false
}

// failure records a missed heartbeat during round. A closed breaker trips
// after threshold consecutive failures; a half-open trial failure reopens
// immediately with a doubled quarantine. It reports whether the breaker
// (re)opened.
func (b *breaker) failure(round int) bool {
	b.consecFails++
	switch b.state {
	case HalfOpen:
		b.quarantine *= 2
		if b.quarantine > b.cfg.maxOpenRounds {
			b.quarantine = b.cfg.maxOpenRounds
		}
		b.state = Open
		b.trialAt = round + 1 + b.quarantine
		return true
	case Closed:
		if b.consecFails >= b.cfg.threshold {
			b.state = Open
			b.trialAt = round + 1 + b.quarantine
			return true
		}
	}
	return false
}
