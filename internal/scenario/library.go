package scenario

import (
	"embed"
	"fmt"
	"os"
	"sort"
	"strings"
)

//go:embed library/*.json
var libraryFS embed.FS

// Names lists the embedded library scenarios, sorted.
func Names() []string {
	entries, err := libraryFS.ReadDir("library")
	if err != nil {
		panic(err) // embedded directory; cannot fail
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// Source returns the raw file of an embedded scenario.
func Source(name string) ([]byte, error) {
	data, err := libraryFS.ReadFile("library/" + name + ".json")
	if err != nil {
		return nil, fmt.Errorf("scenario: no library scenario %q", name)
	}
	return data, nil
}

// Open parses the library scenario named nameOrPath or, when the library
// has no scenario of that name, the scenario-DSL file at path nameOrPath.
func Open(nameOrPath string) (*Spec, error) {
	data, err := Source(nameOrPath)
	if err != nil {
		if data, err = os.ReadFile(nameOrPath); err != nil {
			return nil, fmt.Errorf("scenario: %q names no library scenario and no readable file: %w", nameOrPath, err)
		}
	}
	return Parse(data)
}
