package ctrlplane

// OnAdmit makes f called with a route's name once s admits a request to
// it, before the handler runs. Set it before s serves.
func OnAdmit(s *Server, f func(name string)) { s.routes.OnAdmit(f) }
