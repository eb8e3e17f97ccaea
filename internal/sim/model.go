package sim

import "countrymon/internal/geodb"

// DefaultCountry is the country code a Spec defaults to when it names none:
// every scenario file and spec predating multi-country support describes
// Ukraine, so the zero value keeps them meaning what they always meant.
const DefaultCountry = geodb.CountryUA

// CountryModel is one country expressed as data: a code, a display name and
// the full Spec (address space, per-block ground truth, event script, power
// schedule, vantage outages) that Assemble turns into a runnable Scenario.
// The bundled Ukraine war generator produces one of these (Ukraine); other
// countries come from internal/scenario JSON compiled into a Spec, or from
// any other Spec-producing code. Nothing downstream of Assemble knows which
// country it is simulating except through the model's values.
type CountryModel struct {
	// Code is the ISO 3166-1 alpha-2 country code ("UA", "RO", ...), used
	// as the geolocation country of the model's address space and as the
	// campaign label in fleets, metrics and the serve API.
	Code string
	// Name is the display name ("Ukraine").
	Name string
	// Spec is the model's world as data.
	Spec Spec
}

// Build assembles the model into a Scenario. The model's Code wins over an
// unset Spec.Country, so a model is always built under its own flag.
func (m CountryModel) Build() (*Scenario, error) {
	spec := m.Spec
	if spec.Country == "" {
		spec.Country = m.Code
	}
	if spec.CountryName == "" {
		spec.CountryName = m.Name
	}
	return Assemble(spec)
}
