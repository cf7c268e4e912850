package otpd

import (
	"encoding/json"
	"errors"
	"net/http"

	"openmfa/internal/httpdigest"
	"openmfa/internal/otp"
)

// AdminAPI is the REST interface the portal drives (§3.5): "The portlet
// application communicates with the LinOTP back end via an administrative
// interface, which is available as a Representational State Transfer
// (REST) interface. The portal back end authenticates to the admin API
// using HTTP Digest Authentication."
//
// Endpoints (all JSON):
//
//	POST /admin/init    {user, type, phone?, serial?}   → Enrollment (provisional)
//	POST /admin/remove  {user}                          → {ok}
//	POST /admin/abort   {user, pairing_id}              → {ok}
//	POST /admin/resync  {user, otp1, otp2}              → {ok}
//	POST /admin/reset   {user}                          → {ok}
//	POST /admin/static  {user, code}                    → {ok}
//	GET  /admin/show?user=U                             → TokenInfo
//	GET  /admin/pairing?user=U                          → {pairing, pairing_id}
//	GET  /admin/tokens                                  → []TokenInfo
//	GET  /admin/lockedout                               → []string
//	GET  /admin/audit                                   → []AuditEntry
//	POST /validate/check {user, pass}                   → {value, message}
//
// The /validate endpoint is what RADIUS servers call in LinOTP; it is
// exposed here for parity and for tests, unauthenticated like LinOTP's
// default validator.
type AdminAPI struct {
	OTP   *Server
	Realm string
	Creds httpdigest.CredentialStore
}

// Handler builds the full mux: digest-protected /admin plus open
// /validate/check.
func (a *AdminAPI) Handler() http.Handler {
	admin := http.NewServeMux()
	admin.HandleFunc("POST /admin/init", a.handleInit)
	admin.HandleFunc("POST /admin/remove", a.handleRemove)
	admin.HandleFunc("POST /admin/abort", a.handleAbort)
	admin.HandleFunc("POST /admin/resync", a.handleResync)
	admin.HandleFunc("POST /admin/reset", a.handleReset)
	admin.HandleFunc("POST /admin/static", a.handleStatic)
	admin.HandleFunc("POST /admin/sms", a.handleSMS)
	admin.HandleFunc("GET /admin/show", a.handleShow)
	admin.HandleFunc("GET /admin/pairing", a.handlePairing)
	admin.HandleFunc("GET /admin/tokens", a.handleTokens)
	admin.HandleFunc("GET /admin/lockedout", a.handleLockedOut)
	admin.HandleFunc("GET /admin/audit", a.handleAudit)

	digest := httpdigest.NewServer(a.Realm, a.Creds)
	root := http.NewServeMux()
	root.Handle("/admin/", digest.Wrap(admin))
	root.HandleFunc("POST /validate/check", a.handleValidate)
	return root
}

type initReq struct {
	User   string    `json:"user"`
	Type   TokenType `json:"type"`
	Phone  string    `json:"phone,omitempty"`
	Serial string    `json:"serial,omitempty"`
}

func (a *AdminAPI) handleInit(w http.ResponseWriter, r *http.Request) {
	var req initReq
	if !decodeBody(w, r, &req) {
		return
	}
	// The portal enrols here, so the token is provisional until its
	// first accepted code.
	var enr *Enrollment
	var err error
	switch req.Type {
	case TokenSoft:
		enr, err = a.OTP.initGenerated(req.User, TokenSoft, "", true)
	case TokenSMS:
		enr, err = a.OTP.initGenerated(req.User, TokenSMS, req.Phone, true)
	case TokenHard:
		enr, err = a.OTP.assignHard(req.User, req.Serial, true)
	default:
		writeError(w, http.StatusBadRequest, ErrBadType)
		return
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	resp := RemoteEnrollment{User: enr.User, Type: enr.Type, Serial: enr.Serial, URI: enr.URI, PairingID: enr.PairingID}
	if enr.Secret != nil {
		resp.Secret = otp.EncodeSecret(enr.Secret)
	}
	writeJSON(w, http.StatusOK, resp)
}

type userReq struct {
	User string `json:"user"`
	Code string `json:"code,omitempty"`
	OTP1 string `json:"otp1,omitempty"`
	OTP2 string `json:"otp2,omitempty"`
	Pass string `json:"pass,omitempty"`
	// PairingID is the pairing /admin/abort removes.
	PairingID uint64 `json:"pairing_id,omitempty"`
}

func (a *AdminAPI) handleRemove(w http.ResponseWriter, r *http.Request) {
	a.simpleOp(w, r, func(req *userReq) error { return a.OTP.RemoveToken(req.User) })
}

func (a *AdminAPI) handleAbort(w http.ResponseWriter, r *http.Request) {
	a.simpleOp(w, r, func(req *userReq) error { return a.OTP.AbortPairing(req.User, req.PairingID) })
}

func (a *AdminAPI) handleResync(w http.ResponseWriter, r *http.Request) {
	a.simpleOp(w, r, func(req *userReq) error { return a.OTP.Resync(req.User, req.OTP1, req.OTP2) })
}

func (a *AdminAPI) handleReset(w http.ResponseWriter, r *http.Request) {
	a.simpleOp(w, r, func(req *userReq) error { return a.OTP.ResetFailures(req.User) })
}

func (a *AdminAPI) handleStatic(w http.ResponseWriter, r *http.Request) {
	a.simpleOp(w, r, func(req *userReq) error { return a.OTP.SetStaticToken(req.User, req.Code) })
}

func (a *AdminAPI) simpleOp(w http.ResponseWriter, r *http.Request, op func(*userReq) error) {
	var req userReq
	if !decodeBody(w, r, &req) {
		return
	}
	if err := op(&req); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (a *AdminAPI) handleSMS(w http.ResponseWriter, r *http.Request) {
	var req userReq
	if !decodeBody(w, r, &req) {
		return
	}
	sent, msg, err := a.OTP.TriggerSMS(req.User)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"sent": sent, "message": msg})
}

func (a *AdminAPI) handleShow(w http.ResponseWriter, r *http.Request) {
	info, err := a.OTP.Token(r.URL.Query().Get("user"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// pairingResp is the pairing the token module reads, and its ID.
type pairingResp struct {
	Pairing   string `json:"pairing"`
	PairingID uint64 `json:"pairing_id,omitempty"`
}

func (a *AdminAPI) handlePairing(w http.ResponseWriter, r *http.Request) {
	typ, id, err := a.OTP.pairing(r.URL.Query().Get("user"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, pairingResp{Pairing: typ, PairingID: id})
}

func (a *AdminAPI) handleTokens(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.OTP.Tokens())
}

func (a *AdminAPI) handleLockedOut(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.OTP.LockedOutUsers())
}

func (a *AdminAPI) handleAudit(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.OTP.Audit().Entries())
}

func (a *AdminAPI) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req userReq
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := a.OTP.Check(req.User, req.Pass)
	if err != nil && !errors.Is(err, ErrNoToken) && !errors.Is(err, ErrLockedOut) {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"value": res.OK, "message": res.Message})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrNoToken), errors.Is(err, ErrBadSerial):
		return http.StatusNotFound
	case errors.Is(err, ErrHasToken):
		return http.StatusConflict
	case errors.Is(err, ErrBadType), errors.Is(err, ErrBadStatic), errors.Is(err, ErrNotSMS):
		return http.StatusBadRequest
	case errors.Is(err, ErrLockedOut):
		return http.StatusForbidden
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
