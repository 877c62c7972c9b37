package httpapi

// The values every exchange shares, which nothing may write.
var (
	JSONHeader      = jsonHeader
	NoHeader        = noHeader
	JSONContentType = jsonContentType
)
