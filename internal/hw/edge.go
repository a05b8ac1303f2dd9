package hw

import "fmt"

// EdgeServer models the LEGaTO edge platform of Fig. 9: exactly three
// modular COM-HPC microservers in a ~20x40 cm enclosure, connected
// host-to-host over PCIe (each module is self-sustained, not a peripheral
// of the CPU module), plus I/O for two RGBD cameras, USB and video out.
type EdgeServer struct {
	Name    string
	Modules []*Microserver // length ≤ 3
}

// EdgeModuleSlots is the module capacity of the Fig. 9 enclosure.
const EdgeModuleSlots = 3

// NewEdgeServer creates an empty edge enclosure.
func NewEdgeServer(name string) *EdgeServer { return &EdgeServer{Name: name} }

// AddModule installs a microserver module; the Fig. 9 enclosure takes at
// most three, each of CPU, GPU or FPGA class.
func (s *EdgeServer) AddModule(spec Spec) (*Microserver, error) {
	if len(s.Modules) >= EdgeModuleSlots {
		return nil, fmt.Errorf("hw: edge server %s full (%d modules)", s.Name, EdgeModuleSlots)
	}
	id := fmt.Sprintf("%s/m%d/%s", s.Name, len(s.Modules), spec.Name)
	ms := &Microserver{ID: id, Device: &Device{ID: id, Spec: spec}, Site: len(s.Modules)}
	s.Modules = append(s.Modules, ms)
	return ms, nil
}

// ByClass returns the first module of the given device class, or nil.
func (s *EdgeServer) ByClass(class Class) *Microserver {
	for _, m := range s.Modules {
		if m.Device.Spec.Class == class {
			return m
		}
	}
	return nil
}

// MirrorEdgeCPUGPUGPU builds the "1x CPU + 2x GPU" Smart-Mirror edge
// configuration named in Sec. VI.
func MirrorEdgeCPUGPUGPU(name string) (*EdgeServer, error) {
	s := NewEdgeServer(name)
	for _, spec := range []Spec{ARMv8Server(), JetsonTX2(), JetsonTX2()} {
		if _, err := s.AddModule(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MirrorEdgeCPUGPUFPGA builds the "1 CPU + 1 GPU + 1 FPGA SoC" Smart-Mirror
// edge configuration named in Sec. VI.
func MirrorEdgeCPUGPUFPGA(name string) (*EdgeServer, error) {
	s := NewEdgeServer(name)
	for _, spec := range []Spec{ARMv8Server(), JetsonTX2(), FPGASoC()} {
		if _, err := s.AddModule(spec); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MirrorWorkstation builds the Sec. VI baseline: a high-end workstation
// with two GTX1080 GPUs and an x86 host (~400 W at full pipeline load).
type Workstation struct {
	Name string
	Host *Device
	GPUs []*Device
}

// NewMirrorWorkstation instantiates the baseline workstation.
func NewMirrorWorkstation(name string) *Workstation {
	host := XeonD()
	// Workstation host: desktop-class idle/peak envelope so that the
	// whole-system full-load draw lands near the paper's 400 W.
	host.IdleWatts = 45
	host.PeakWatts = 95
	w := &Workstation{Name: name}
	w.Host = &Device{ID: name + "/host", Spec: host}
	for i := 0; i < 2; i++ {
		spec := GTX1080()
		// Full-board draw including memory and VRM losses.
		spec.IdleWatts = 15
		spec.PeakWatts = 165
		w.GPUs = append(w.GPUs, &Device{ID: fmt.Sprintf("%s/gpu%d", name, i), Spec: spec})
	}
	return w
}
