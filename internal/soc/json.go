package soc

import (
	"encoding/json"
	"fmt"
)

// Platform descriptions are plain data, so they serialise directly: a
// platform bundle file nests one as its "soc" object, which is how custom
// hardware is defined in JSON and loaded at runtime (teemsim -platform
// custom.json) instead of recompiled.

// jsonCluster mirrors Cluster with explicit JSON tags and a string kind.
type jsonCluster struct {
	Name          string    `json:"name"`
	Kind          string    `json:"kind"` // "big", "LITTLE", "GPU"
	NumCores      int       `json:"num_cores"`
	OPPs          []jsonOPP `json:"opps"`
	CdynCoreNF    float64   `json:"cdyn_core_nf"`
	LeakCoeff     float64   `json:"leak_coeff"`
	LeakTempCoeff float64   `json:"leak_temp_coeff"`
}

type jsonOPP struct {
	FreqMHz int     `json:"freq_mhz"`
	VoltV   float64 `json:"volt_v"`
}

type jsonPlatform struct {
	Name            string        `json:"name"`
	Clusters        []jsonCluster `json:"clusters"`
	BoardBaselineW  float64       `json:"board_baseline_w"`
	DRAMPowerPerGBs float64       `json:"dram_power_per_gbs"`
	AmbientC        float64       `json:"ambient_c"`
	TripC           float64       `json:"trip_c"`
	TripReleaseC    float64       `json:"trip_release_c"`
	TripCapMHz      int           `json:"trip_cap_mhz"`
}

func kindFromString(s string) (ClusterKind, error) {
	switch s {
	case "big":
		return BigCPU, nil
	case "LITTLE":
		return LittleCPU, nil
	case "GPU":
		return GPU, nil
	default:
		return 0, fmt.Errorf("soc: unknown cluster kind %q (want big, LITTLE or GPU)", s)
	}
}

// MarshalJSON encodes the platform as the "soc" object of a platform
// bundle file (internal/platform). It performs no validation.
func (p *Platform) MarshalJSON() ([]byte, error) {
	jp := jsonPlatform{
		Name:            p.Name,
		BoardBaselineW:  p.BoardBaselineW,
		DRAMPowerPerGBs: p.DRAMPowerPerGBs,
		AmbientC:        p.AmbientC,
		TripC:           p.TripC,
		TripReleaseC:    p.TripReleaseC,
		TripCapMHz:      p.TripCapMHz,
	}
	for i := range p.Clusters {
		c := &p.Clusters[i]
		jc := jsonCluster{
			Name:          c.Name,
			Kind:          c.Kind.String(),
			NumCores:      c.NumCores,
			CdynCoreNF:    c.CdynCoreNF,
			LeakCoeff:     c.LeakCoeff,
			LeakTempCoeff: c.LeakTempCoeff,
		}
		for _, o := range c.OPPs {
			jc.OPPs = append(jc.OPPs, jsonOPP{FreqMHz: o.FreqMHz, VoltV: o.VoltV})
		}
		jp.Clusters = append(jp.Clusters, jc)
	}
	return json.Marshal(jp)
}

// UnmarshalJSON decodes the schema MarshalJSON writes. Like MarshalJSON
// it is a pure codec: run Validate on untrusted input (platform.Load
// validates the bundle as a whole).
func (p *Platform) UnmarshalJSON(data []byte) error {
	var jp jsonPlatform
	if err := json.Unmarshal(data, &jp); err != nil {
		return fmt.Errorf("soc: decoding platform: %w", err)
	}
	np := Platform{
		Name:            jp.Name,
		BoardBaselineW:  jp.BoardBaselineW,
		DRAMPowerPerGBs: jp.DRAMPowerPerGBs,
		AmbientC:        jp.AmbientC,
		TripC:           jp.TripC,
		TripReleaseC:    jp.TripReleaseC,
		TripCapMHz:      jp.TripCapMHz,
	}
	for _, jc := range jp.Clusters {
		kind, err := kindFromString(jc.Kind)
		if err != nil {
			return err
		}
		c := Cluster{
			Name:          jc.Name,
			Kind:          kind,
			NumCores:      jc.NumCores,
			CdynCoreNF:    jc.CdynCoreNF,
			LeakCoeff:     jc.LeakCoeff,
			LeakTempCoeff: jc.LeakTempCoeff,
		}
		for _, o := range jc.OPPs {
			c.OPPs = append(c.OPPs, OPP{FreqMHz: o.FreqMHz, VoltV: o.VoltV})
		}
		np.Clusters = append(np.Clusters, c)
	}
	*p = np
	return nil
}
