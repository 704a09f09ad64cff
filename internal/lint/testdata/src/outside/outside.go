// Package outside is a tangolint fixture helper outside the sim packages'
// import closure: nothing sim-driven imports it, so its sources are not
// reported where they are written. Its Ticker implements detfix.Callback
// and reads the clock two calls down, which detertaint reports at
// detfix's interface call.
package outside

import "time"

// Ticker remembers when it last fired.
type Ticker struct{ last int64 }

// Fire stamps the ticker.
func (t *Ticker) Fire() { t.last = stamp() }

func stamp() int64 { return time.Now().UnixNano() }
