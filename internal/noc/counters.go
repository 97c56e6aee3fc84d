package noc

// Counters accumulates the switching activity a router performs; the
// power model (internal/power) converts these into energy. Weighted
// variants scale each event by the fraction of datapath layers the flit
// kept awake, which models the short-flit layer-shutdown technique of
// §3.2.1: a short flit in a 4-layer 3DM router only charges 1/4 of the
// buffer bit-lines, crossbar wires and link wires.
type Counters struct {
	BufWrites int64 // flits written into input buffers
	BufReads  int64 // flits read out of input buffers: XbarFlits (Router.Counters)
	XbarFlits int64 // crossbar traversals
	LinkFlits int64 // inter-router link traversals
	ExpFlits  int64 // subset of LinkFlits on express channels
	VertFlits int64 // subset of LinkFlits on vertical (TSV) links
	D2DFlits  int64 // subset of LinkFlits crossing a die-to-die link
	SAGrants  int64 // switch-allocator grants
	VAGrants  int64 // VC-allocator grants
	SAReqs    int64 // switch-allocator requests (incl. failed)
	VAReqs    int64 // VC-allocator requests (incl. failed)
	RCOps     int64 // route computations
	// CreditStalls counts switch-eligible flits skipped because their
	// output VC had no downstream credit — the per-router backpressure
	// signal the observability sampler tracks over time.
	CreditStalls int64
	// SerStalls counts switch-eligible flits skipped because their
	// output port's serializing die-to-die link was still streaming an
	// earlier flit (narrow-link occupancy, the chiplet analogue of
	// CreditStalls).
	SerStalls int64

	// Layer-shutdown-weighted datapath activity.
	WBufWrites float64
	WBufReads  float64
	WXbarFlits float64
	WLinkFlits float64

	// LinkMMFlits is the sum over link traversals of link length (mm);
	// WLinkMMFlits is the same weighted by active-layer fraction.
	LinkMMFlits  float64
	WLinkMMFlits float64
}

// Add folds other into c.
func (c *Counters) Add(other *Counters) {
	c.BufWrites += other.BufWrites
	c.BufReads += other.BufReads
	c.XbarFlits += other.XbarFlits
	c.LinkFlits += other.LinkFlits
	c.ExpFlits += other.ExpFlits
	c.VertFlits += other.VertFlits
	c.D2DFlits += other.D2DFlits
	c.SAGrants += other.SAGrants
	c.VAGrants += other.VAGrants
	c.SAReqs += other.SAReqs
	c.VAReqs += other.VAReqs
	c.RCOps += other.RCOps
	c.CreditStalls += other.CreditStalls
	c.SerStalls += other.SerStalls
	c.WBufWrites += other.WBufWrites
	c.WBufReads += other.WBufReads
	c.WXbarFlits += other.WXbarFlits
	c.WLinkFlits += other.WLinkFlits
	c.LinkMMFlits += other.LinkMMFlits
	c.WLinkMMFlits += other.WLinkMMFlits
}
