package sim_test

import (
	"testing"

	"prism/internal/fault"
	"prism/internal/sim"
)

// TestWheelHoldsFirstRetransmissionTimer pins the wheel horizon against
// the recovery transport's default timeout. A first retransmission
// timer is armed at the message's NI injection time plus DefaultRTO;
// while DefaultRTO is at most half the horizon, the timer goes into the
// wheel unless the NI queue delays the injection by the other half.
// Past that, every timer of a lossy run would go to the far heap.
func TestWheelHoldsFirstRetransmissionTimer(t *testing.T) {
	if fault.DefaultRTO > sim.WheelSize/2 {
		t.Fatalf("fault.DefaultRTO = %d cycles exceeds half the wheel horizon (%d): raise wheelSize", fault.DefaultRTO, sim.WheelSize)
	}
}
