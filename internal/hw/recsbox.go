package hw

import "fmt"

// The RECS|BOX platform (paper Figs. 3-4): a 3RU server whose backplane
// hosts up to 15 carriers; carriers come in three classes (low-power with
// up to 16 microserver sites, high-performance with up to 3 sites, and PCIe
// expansion), for at most 144 microservers per box.

// CarrierClass enumerates the RECS|BOX carrier types of Fig. 4.
type CarrierClass int

const (
	// LowPowerCarrier hosts up to 16 low-power microservers (Apalis/Jetson).
	LowPowerCarrier CarrierClass = iota
	// HighPerfCarrier hosts up to 3 COM Express high-performance microservers.
	HighPerfCarrier
	// PCIeExpansionCarrier hosts PCIe peripherals, e.g. a GPU accelerator.
	PCIeExpansionCarrier
)

// String names the carrier class.
func (c CarrierClass) String() string {
	switch c {
	case LowPowerCarrier:
		return "low-power"
	case HighPerfCarrier:
		return "high-performance"
	case PCIeExpansionCarrier:
		return "pcie-expansion"
	default:
		return fmt.Sprintf("carrier(%d)", int(c))
	}
}

// Sites returns the maximum number of microserver sites for the class.
func (c CarrierClass) Sites() int {
	switch c {
	case LowPowerCarrier:
		return 16
	case HighPerfCarrier:
		return 3
	case PCIeExpansionCarrier:
		return 1
	default:
		return 0
	}
}

// lowPowerAllowed lists the classes a low-power site accepts (Fig. 4:
// GPU SoC, FPGA SoC, ARM SoC).
func lowPowerAllowed(class Class) bool {
	return class == CPUARM || class == GPU || class == FPGA
}

// highPerfAllowed lists the classes a high-performance site accepts
// (Fig. 4: x86, ARMv8, FPGA via COM Express).
func highPerfAllowed(class Class) bool {
	return class == CPUx86 || class == CPUARM || class == FPGA
}

// Microserver is one self-sustained compute module on a carrier.
type Microserver struct {
	ID     string
	Device *Device
	// Carrier backlink, set on insertion.
	Carrier *Carrier
	// Site is the slot index within the carrier.
	Site int
}

// Carrier is one RECS|BOX carrier board.
type Carrier struct {
	Class CarrierClass
	Index int
	Slots []*Microserver // fixed length = Class.Sites()
}

// NewCarrier creates an empty carrier of the given class.
func NewCarrier(class CarrierClass, index int) *Carrier {
	return &Carrier{Class: class, Index: index, Slots: make([]*Microserver, class.Sites())}
}

// Occupied returns the number of populated sites.
func (c *Carrier) Occupied() int {
	n := 0
	for _, s := range c.Slots {
		if s != nil {
			n++
		}
	}
	return n
}

// accepts validates that a device class may populate this carrier.
func (c *Carrier) accepts(class Class) bool {
	switch c.Class {
	case LowPowerCarrier:
		return lowPowerAllowed(class)
	case HighPerfCarrier:
		return highPerfAllowed(class)
	case PCIeExpansionCarrier:
		return class == GPU || class == FPGA || class == DFE
	default:
		return false
	}
}

// RECSBox is a populated RECS|BOX chassis.
type RECSBox struct {
	Name     string
	Carriers []*Carrier
}

// MaxCarriers is the backplane capacity (Fig. 4: up to 15 carriers).
const MaxCarriers = 15

// MaxMicroservers is the chassis capacity (Sec. II-A: up to 144 nodes).
const MaxMicroservers = 144

// NewRECSBox creates an empty chassis.
func NewRECSBox(name string) *RECSBox { return &RECSBox{Name: name} }

// AddCarrier installs a carrier; it fails beyond backplane capacity.
func (b *RECSBox) AddCarrier(class CarrierClass) (*Carrier, error) {
	if len(b.Carriers) >= MaxCarriers {
		return nil, fmt.Errorf("hw: %s backplane full (%d carriers)", b.Name, MaxCarriers)
	}
	c := NewCarrier(class, len(b.Carriers))
	b.Carriers = append(b.Carriers, c)
	return c, nil
}

// Populate inserts a microserver built from spec into the first free,
// compatible site of carrier c.
func (b *RECSBox) Populate(c *Carrier, spec Spec) (*Microserver, error) {
	if !c.accepts(spec.Class) {
		return nil, fmt.Errorf("hw: %s carrier does not accept %s devices", c.Class, spec.Class)
	}
	if b.CountMicroservers() >= MaxMicroservers {
		return nil, fmt.Errorf("hw: %s at chassis capacity (%d microservers)", b.Name, MaxMicroservers)
	}
	for site, s := range c.Slots {
		if s != nil {
			continue
		}
		id := fmt.Sprintf("%s/c%d/s%d/%s", b.Name, c.Index, site, spec.Name)
		ms := &Microserver{
			ID:      id,
			Device:  &Device{ID: id, Spec: spec},
			Carrier: c,
			Site:    site,
		}
		c.Slots[site] = ms
		return ms, nil
	}
	return nil, fmt.Errorf("hw: carrier %d full (%d sites)", c.Index, c.Class.Sites())
}

// CountMicroservers returns the number of populated sites chassis-wide.
func (b *RECSBox) CountMicroservers() int {
	n := 0
	for _, c := range b.Carriers {
		n += c.Occupied()
	}
	return n
}

// Microservers returns every populated microserver in carrier/site order.
func (b *RECSBox) Microservers() []*Microserver {
	var out []*Microserver
	for _, c := range b.Carriers {
		for _, s := range c.Slots {
			if s != nil {
				out = append(out, s)
			}
		}
	}
	return out
}

// IdlePower sums the idle draw of every microserver: the chassis floor
// before any work is placed.
func (b *RECSBox) IdlePower() float64 {
	p := 0.0
	for _, ms := range b.Microservers() {
		p += ms.Device.Spec.IdleWatts
	}
	return p
}

// Validate checks the structural invariants of Figs. 3-4.
func (b *RECSBox) Validate() error {
	if len(b.Carriers) > MaxCarriers {
		return fmt.Errorf("hw: %d carriers exceeds backplane capacity %d", len(b.Carriers), MaxCarriers)
	}
	if n := b.CountMicroservers(); n > MaxMicroservers {
		return fmt.Errorf("hw: %d microservers exceeds chassis capacity %d", n, MaxMicroservers)
	}
	for _, c := range b.Carriers {
		if len(c.Slots) != c.Class.Sites() {
			return fmt.Errorf("hw: carrier %d has %d slots, class allows %d", c.Index, len(c.Slots), c.Class.Sites())
		}
		for site, ms := range c.Slots {
			if ms == nil {
				continue
			}
			if !c.accepts(ms.Device.Spec.Class) {
				return fmt.Errorf("hw: carrier %d site %d holds incompatible %s", c.Index, site, ms.Device.Spec.Class)
			}
		}
	}
	return nil
}

// StandardCloudBox builds a representative fully-mixed RECS|BOX used by the
// cluster experiments: two high-performance carriers (x86 + ARM + FPGA),
// one PCIe expansion carrier with a GPU, and one low-power carrier with a
// mix of Jetson and Apalis modules.
func StandardCloudBox(name string) (*RECSBox, error) {
	b := NewRECSBox(name)

	hp1, err := b.AddCarrier(HighPerfCarrier)
	if err != nil {
		return nil, err
	}
	for _, spec := range []Spec{XeonD(), XeonD(), ARMv8Server()} {
		if _, err := b.Populate(hp1, spec); err != nil {
			return nil, err
		}
	}

	hp2, err := b.AddCarrier(HighPerfCarrier)
	if err != nil {
		return nil, err
	}
	for _, spec := range []Spec{XeonD(), VirtexFPGA(), KintexFPGA()} {
		if _, err := b.Populate(hp2, spec); err != nil {
			return nil, err
		}
	}

	px, err := b.AddCarrier(PCIeExpansionCarrier)
	if err != nil {
		return nil, err
	}
	if _, err := b.Populate(px, GTX1080()); err != nil {
		return nil, err
	}

	lp, err := b.AddCarrier(LowPowerCarrier)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		if _, err := b.Populate(lp, JetsonTX2()); err != nil {
			return nil, err
		}
		if _, err := b.Populate(lp, ApalisARM()); err != nil {
			return nil, err
		}
	}

	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}
