package otpd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"openmfa/internal/httpdigest"
	"openmfa/internal/otp"
)

// AdminClient is the typed client for the admin REST API — what the portal
// uses to "perform all necessary operations to manage user token
// information" (§3.5), authenticating with HTTP Digest.
type AdminClient struct {
	// BaseURL is the otpd admin endpoint, e.g. "http://127.0.0.1:8443".
	BaseURL string
	// Username/Password are the digest credentials.
	Username string
	Password string

	client *http.Client
}

func (c *AdminClient) http() *http.Client {
	if c.client == nil {
		c.client = &http.Client{Transport: &httpdigest.Client{
			Username: c.Username, Password: c.Password,
		}}
	}
	return c.client
}

// APIError carries a non-2xx response.
type APIError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("otpd admin: HTTP %d: %s", e.Status, e.Message)
}

func (c *AdminClient) post(path string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.http().Post(c.BaseURL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResp(resp, out)
}

func (c *AdminClient) get(path string, out any) error {
	resp, err := c.http().Get(c.BaseURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResp(resp, out)
}

func decodeResp(resp *http.Response, out any) error {
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return &APIError{Status: resp.StatusCode, Message: e.Error}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RemoteEnrollment is the admin API's view of a token initialisation.
type RemoteEnrollment struct {
	User   string    `json:"user"`
	Type   TokenType `json:"type"`
	Secret string    `json:"secret,omitempty"` // base32
	Serial string    `json:"serial,omitempty"`
	URI    string    `json:"uri,omitempty"`
	// PairingID names this provisional pairing for Abort.
	PairingID uint64 `json:"pairing_id"`
}

// SecretBytes decodes the base32 secret.
func (e *RemoteEnrollment) SecretBytes() ([]byte, error) {
	if e.Secret == "" {
		return nil, nil
	}
	return otp.DecodeSecret(e.Secret)
}

// Init provisions a token of the given type. phone is required for SMS,
// serial for hard tokens.
func (c *AdminClient) Init(user string, typ TokenType, phone, serial string) (*RemoteEnrollment, error) {
	var out RemoteEnrollment
	err := c.post("/admin/init", initReq{User: user, Type: typ, Phone: phone, Serial: serial}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Remove unpairs the user's token.
func (c *AdminClient) Remove(user string) error {
	return c.post("/admin/remove", userReq{User: user}, nil)
}

// Abort removes the user's token only while it is still the provisional
// one that pairing id enrolled.
func (c *AdminClient) Abort(user string, id uint64) error {
	return c.post("/admin/abort", userReq{User: user, PairingID: id}, nil)
}

// Reset clears the user's failure counter.
func (c *AdminClient) Reset(user string) error {
	return c.post("/admin/reset", userReq{User: user}, nil)
}

// Resync realigns a drifted token.
func (c *AdminClient) Resync(user, otp1, otp2 string) error {
	return c.post("/admin/resync", userReq{User: user, OTP1: otp1, OTP2: otp2}, nil)
}

// SetStatic provisions a training token.
func (c *AdminClient) SetStatic(user, code string) error {
	return c.post("/admin/static", userReq{User: user, Code: code}, nil)
}

// TriggerSMS asks the back end to text the user their current code.
func (c *AdminClient) TriggerSMS(user string) (sent bool, msg string, err error) {
	var out struct {
		Sent    bool   `json:"sent"`
		Message string `json:"message"`
	}
	if err := c.post("/admin/sms", userReq{User: user}, &out); err != nil {
		return false, "", err
	}
	return out.Sent, out.Message, nil
}

// Show fetches the admin view of a user's token.
func (c *AdminClient) Show(user string) (*TokenInfo, error) {
	var out TokenInfo
	if err := c.get("/admin/show?user="+user, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Pairing reads the user's pairing as the token module sees it ("none"
// until a code confirms a token) and the ID of that pairing.
func (c *AdminClient) Pairing(user string) (string, uint64, error) {
	var out pairingResp
	if err := c.get("/admin/pairing?user="+url.QueryEscape(user), &out); err != nil {
		return "", 0, err
	}
	return out.Pairing, out.PairingID, nil
}

// Validate checks a token code via the open validation endpoint.
func (c *AdminClient) Validate(user, code string) (bool, string, error) {
	var out struct {
		Value   bool   `json:"value"`
		Message string `json:"message"`
	}
	b, _ := json.Marshal(userReq{User: user, Pass: code})
	resp, err := http.Post(c.BaseURL+"/validate/check", "application/json", bytes.NewReader(b))
	if err != nil {
		return false, "", err
	}
	defer resp.Body.Close()
	if err := decodeResp(resp, &out); err != nil {
		return false, "", err
	}
	return out.Value, out.Message, nil
}

// LockedOut lists deactivated users.
func (c *AdminClient) LockedOut() ([]string, error) {
	var out []string
	if err := c.get("/admin/lockedout", &out); err != nil {
		return nil, err
	}
	return out, nil
}
