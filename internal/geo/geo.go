// Package geo carries the geographic reference data every analysis joins
// against: the LACNIC country set, city coordinates for latency modeling,
// IATA airport codes for CHAOS TXT site extraction, and great-circle
// distance.
package geo

import (
	"math"
	"sort"
	"strings"
)

// Country describes one country in (or relevant to) the study.
type Country struct {
	Code   string // ISO 3166-1 alpha-2
	Name   string
	LACNIC bool    // belongs to the LACNIC service region
	Lat    float64 // centroid used for coarse latency modeling
	Lon    float64
}

// City is a population center that can host infrastructure (facilities,
// IXPs, root DNS instances, probes).
type City struct {
	Name    string
	Country string // ISO country code
	IATA    string // airport code used in CHAOS TXT instance names
	Lat     float64
	Lon     float64
}

// countries is the reference country table. LACNIC members follow the
// registry's service region; US and EU countries appear because the paper's
// DNS-origin and transit analyses reference them.
var countries = []Country{
	{"AR", "Argentina", true, -34.6, -58.4},
	{"BO", "Bolivia", true, -16.5, -68.1},
	{"BR", "Brazil", true, -15.8, -47.9},
	{"BQ", "Bonaire", true, 12.2, -68.3},
	{"BZ", "Belize", true, 17.3, -88.8},
	{"CL", "Chile", true, -33.4, -70.7},
	{"CO", "Colombia", true, 4.6, -74.1},
	{"CR", "Costa Rica", true, 9.9, -84.1},
	{"CU", "Cuba", true, 23.1, -82.4},
	{"CW", "Curacao", true, 12.1, -68.9},
	{"DO", "Dominican Republic", true, 18.5, -69.9},
	{"EC", "Ecuador", true, -0.2, -78.5},
	{"GF", "French Guiana", true, 4.9, -52.3},
	{"GT", "Guatemala", true, 14.6, -90.5},
	{"GY", "Guyana", true, 6.8, -58.2},
	{"HN", "Honduras", true, 14.1, -87.2},
	{"HT", "Haiti", true, 18.5, -72.3},
	{"MX", "Mexico", true, 19.4, -99.1},
	{"NI", "Nicaragua", true, 12.1, -86.3},
	{"PA", "Panama", true, 9.0, -79.5},
	{"PE", "Peru", true, -12.0, -77.0},
	{"PY", "Paraguay", true, -25.3, -57.6},
	{"SR", "Suriname", true, 5.9, -55.2},
	{"SV", "El Salvador", true, 13.7, -89.2},
	{"SX", "Sint Maarten", true, 18.0, -63.1},
	{"TT", "Trinidad and Tobago", true, 10.7, -61.5},
	{"UY", "Uruguay", true, -34.9, -56.2},
	{"VE", "Venezuela", true, 10.5, -66.9},
	// Non-LACNIC countries referenced by the DNS-origin, transit, and US-IXP
	// analyses.
	{"US", "United States", false, 38.9, -77.0},
	{"GB", "Great Britain", false, 51.5, -0.1},
	{"DE", "Germany", false, 52.5, 13.4},
	{"FR", "France", false, 48.9, 2.4},
	{"NL", "Netherlands", false, 52.4, 4.9},
	{"ES", "Spain", false, 40.4, -3.7},
	{"IT", "Italy", false, 41.9, 12.5},
	{"SE", "Sweden", false, 59.3, 18.1},
	{"JP", "Japan", false, 35.7, 139.7},
	{"ZA", "South Africa", false, -26.2, 28.0},
	{"CA", "Canada", false, 45.4, -75.7},
	{"RU", "Russia", false, 55.8, 37.6},
}

var countryByCode = func() map[string]Country {
	m := make(map[string]Country, len(countries))
	for _, c := range countries {
		m[c.Code] = c
	}
	return m
}()

// LookupCountry returns the Country for an ISO code.
func LookupCountry(code string) (Country, bool) {
	c, ok := countryByCode[strings.ToUpper(code)]
	return c, ok
}

// LACNICCountries returns the ISO codes of the LACNIC service region,
// sorted.
func LACNICCountries() []string {
	var out []string
	for _, c := range countries {
		if c.LACNIC {
			out = append(out, c.Code)
		}
	}
	sort.Strings(out)
	return out
}

// ComparablePeers is the fixed set of countries the paper highlights
// against Venezuela in every panel figure.
var ComparablePeers = []string{"AR", "BR", "CL", "CO", "MX", "UY"}

// cities is the city table. IATA codes are the real airport codes for those
// cities; the CHAOS TXT parsers resolve instance names through them.
var cities = []City{
	{"Caracas", "VE", "CCS", 10.48, -66.90},
	{"Maracaibo", "VE", "MAR", 10.65, -71.63},
	{"Valencia", "VE", "VLN", 10.18, -67.99},
	{"San Cristobal", "VE", "SCI", 7.77, -72.22},
	{"Buenos Aires", "AR", "EZE", -34.60, -58.38},
	{"Cordoba", "AR", "COR", -31.42, -64.18},
	{"Sao Paulo", "BR", "GRU", -23.55, -46.63},
	{"Rio de Janeiro", "BR", "GIG", -22.91, -43.17},
	{"Fortaleza", "BR", "FOR", -3.73, -38.52},
	{"Porto Alegre", "BR", "POA", -30.03, -51.23},
	{"Santiago", "CL", "SCL", -33.45, -70.67},
	{"Arica", "CL", "ARI", -18.48, -70.31},
	{"Concepcion", "CL", "CCP", -36.83, -73.05},
	{"Bogota", "CO", "BOG", 4.71, -74.07},
	{"Cucuta", "CO", "CUC", 7.89, -72.51},
	{"Medellin", "CO", "MDE", 6.24, -75.58},
	{"Mexico City", "MX", "MEX", 19.43, -99.13},
	{"Monterrey", "MX", "MTY", 25.69, -100.32},
	{"Montevideo", "UY", "MVD", -34.90, -56.16},
	{"Panama City", "PA", "PTY", 8.98, -79.52},
	{"San Jose CR", "CR", "SJO", 9.93, -84.08},
	{"Quito", "EC", "UIO", -0.18, -78.47},
	{"Lima", "PE", "LIM", -12.05, -77.04},
	{"Asuncion", "PY", "ASU", -25.26, -57.58},
	{"La Paz", "BO", "LPB", -16.49, -68.12},
	{"Santo Domingo", "DO", "SDQ", 18.49, -69.93},
	{"Guatemala City", "GT", "GUA", 14.63, -90.51},
	{"Tegucigalpa", "HN", "TGU", 14.07, -87.19},
	{"Managua", "NI", "MGA", 12.13, -86.25},
	{"Port of Spain", "TT", "POS", 10.65, -61.50},
	{"Willemstad", "CW", "CUR", 12.11, -68.93},
	{"Havana", "CU", "HAV", 23.11, -82.37},
	{"Georgetown", "GY", "GEO", 6.80, -58.16},
	{"Paramaribo", "SR", "PBM", 5.87, -55.17},
	{"San Salvador", "SV", "SAL", 13.69, -89.19},
	{"Belize City", "BZ", "BZE", 17.50, -88.20},
	{"Port-au-Prince", "HT", "PAP", 18.54, -72.34},
	{"Cayenne", "GF", "CAY", 4.92, -52.31},
	{"Philipsburg", "SX", "SXM", 18.04, -63.05},
	{"Kralendijk", "BQ", "BON", 12.15, -68.27},
	{"Miami", "US", "MIA", 25.76, -80.19},
	{"Ashburn", "US", "IAD", 39.04, -77.49},
	{"New York", "US", "JFK", 40.71, -74.01},
	{"Los Angeles", "US", "LAX", 34.05, -118.24},
	{"Chicago", "US", "ORD", 41.88, -87.63},
	{"Dallas", "US", "DFW", 32.78, -96.80},
	{"Atlanta", "US", "ATL", 33.75, -84.39},
	{"Seattle", "US", "SEA", 47.61, -122.33},
	{"London", "GB", "LHR", 51.51, -0.13},
	{"Frankfurt", "DE", "FRA", 50.11, 8.68},
	{"Paris", "FR", "CDG", 48.86, 2.35},
	{"Amsterdam", "NL", "AMS", 52.37, 4.90},
	{"Madrid", "ES", "MAD", 40.42, -3.70},
	{"Rome", "IT", "FCO", 41.90, 12.50},
	{"Stockholm", "SE", "ARN", 59.33, 18.07},
	{"Tokyo", "JP", "NRT", 35.68, 139.69},
	{"Johannesburg", "ZA", "JNB", -26.20, 28.05},
	{"Toronto", "CA", "YYZ", 43.65, -79.38},
	{"Moscow", "RU", "SVO", 55.76, 37.62},
}

var cityByIATA = func() map[string]City {
	m := make(map[string]City, len(cities))
	for _, c := range cities {
		m[c.IATA] = c
	}
	return m
}()

// LookupIATA resolves an airport code to its city.
func LookupIATA(code string) (City, bool) {
	c, ok := cityByIATA[strings.ToUpper(code)]
	return c, ok
}

// CitiesIn returns the cities located in country cc, in table order.
func CitiesIn(cc string) []City {
	var out []City
	for _, c := range cities {
		if c.Country == cc {
			out = append(out, c)
		}
	}
	return out
}

// AllCities returns a copy of the full city table.
func AllCities() []City {
	out := make([]City, len(cities))
	copy(out, cities)
	return out
}

const earthRadiusKm = 6371.0

// HaversineKm returns the great-circle distance between two coordinates.
func HaversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	rad := math.Pi / 180
	dLat := (lat2 - lat1) * rad
	dLon := (lon2 - lon1) * rad
	a := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1*rad)*math.Cos(lat2*rad)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(a))
}

// PropagationDelayMs estimates one-way propagation delay in milliseconds
// for a fiber path of the given great-circle distance. Light in fiber
// travels at roughly 2/3 c and real paths detour; the 1.52 path-stretch
// factor follows common transit-path measurements.
func PropagationDelayMs(distanceKm float64) float64 {
	const fiberKmPerMs = 200.0 // ~2/3 of c
	const pathStretch = 1.52
	return distanceKm * pathStretch / fiberKmPerMs
}
