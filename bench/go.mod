// The benchmark is its own module so that building, vetting and testing it
// never touches the program's tier-1 suite. The module path sits under
// countrymon/ so the program's internal packages stay importable.
module countrymon/bench

go 1.22

require countrymon v0.0.0

replace countrymon => ../
