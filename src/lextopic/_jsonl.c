/* A one-pass reader for the JSON Lines that corpora are written in.
 *
 * read_block(block, final) splits a bytes block at '\n' and gives, for
 * each line, either the dict that json.loads(line) returns or, where the
 * line is outside the subset below, the line's bytes with its newline.
 * The line after the last '\n' is read only when final is nonzero, and
 * the returned count of bytes consumed tells the caller where the next
 * block starts.
 *
 * A line is in the subset when json.loads reads it as an object, but for
 * a line with a carriage return, one nested more than MAX_DEPTH
 * containers deep, and one with a \u escape of a surrogate that is not
 * half of a pair. So strings may hold any UTF-8 character and any escape,
 * numbers may have any form json.loads reads, NaN and the infinities
 * among them, and spaces and tabs may stand around and between tokens.
 * Each string is validated and decoded in the pass that finds its end,
 * and each number read as json.loads reads it: int() of an integer's
 * digits, float() of any other number's text.
 *
 * Loaded with ctypes.PyDLL, so it runs holding the GIL. A failed parse
 * returns NULL with no exception set; NULL with an exception set is a
 * failed allocation.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define MAX_DEPTH 32
#define NOT_READ 0x110000 /* past every code point */
#define CLOSING_QUOTE 0x110001

typedef struct {
    const unsigned char *at, *end;
    void *scratch; /* 4 bytes per byte of the line: room for a Py_UCS4 for each character */
} Parser;

static PyObject *parse_value(Parser *parser, int depth);

static void skip_space(Parser *parser)
{
    while (parser->at < parser->end && (*parser->at == ' ' || *parser->at == '\t'))
        parser->at++;
}

/* The value of the four hex digits at at, or NOT_READ. The byte that ends
 * the line is no hex digit, so none past it is read. */
static Py_UCS4 parse_hex(const unsigned char *at)
{
    Py_UCS4 code = 0;
    for (int i = 0; i < 4; i++) {
        unsigned int digit = at[i], lower = digit | 0x20;
        if (digit >= '0' && digit <= '9')
            digit -= '0';
        else if (lower >= 'a' && lower <= 'f')
            digit = lower - 'a' + 10;
        else
            return NOT_READ;
        code = code << 4 | digit;
    }
    return code;
}

/* The code point of the escape whose backslash is at *at, moving *at past
 * it: a pair of \u escapes of surrogates is one code point. NOT_READ for
 * an escape that json.loads rejects, and for a surrogate with no partner,
 * which json.loads keeps as it is and the loader refuses. */
static Py_UCS4 parse_escape(const unsigned char **at)
{
    const unsigned char *escape = *at;
    *at += 2;
    switch (escape[1]) {
    case '"':
    case '\\':
    case '/':
        return escape[1];
    case 'b':
        return '\b';
    case 'f':
        return '\f';
    case 'n':
        return '\n';
    case 'r':
        return '\r';
    case 't':
        return '\t';
    case 'u':
        break;
    default:
        return NOT_READ;
    }
    Py_UCS4 code = parse_hex(escape + 2);
    *at += 4;
    if (code < 0xD800 || code > 0xDFFF) /* NOT_READ too */
        return code;
    if (code > 0xDBFF || escape[6] != '\\' || escape[7] != 'u')
        return NOT_READ;
    Py_UCS4 low = parse_hex(escape + 8);
    if (low < 0xDC00 || low > 0xDFFF)
        return NOT_READ;
    *at += 6;
    return 0x10000 + ((code - 0xD800) << 10 | (low - 0xDC00));
}

/* The code point of the character or escape at *at in a string, moving
 * *at past it; CLOSING_QUOTE, not moving it, for the string's closing
 * quote, and NOT_READ for anything json.loads or the loader rejects.
 *
 * The byte at a line's end is its '\n' or the NUL that closes every bytes
 * object: a control character, which ends the string as a failure. So no
 * byte past it is read, and a sequence cut by it fails on its first
 * missing continuation byte. Always inlined: called, it costs the string
 * loop a fifth of its speed. */
static inline __attribute__((always_inline)) Py_UCS4 next_code(const unsigned char **at)
{
    const unsigned char *c = *at;
    Py_UCS4 lead = c[0], code;
    if (lead >= 0xC2 && lead <= 0xDF) { /* first: most of a Persian text's characters */
        if ((c[1] & 0xC0) != 0x80)
            return NOT_READ;
        *at += 2;
        return (lead & 0x1F) << 6 | (c[1] & 0x3F);
    }
    if (lead < 0x80) {
        if (lead == '"')
            return CLOSING_QUOTE;
        if (lead == '\\')
            return parse_escape(at);
        if (lead < 0x20)
            return NOT_READ;
        *at += 1;
        return lead;
    }
    if (lead >= 0xE0 && lead <= 0xEF) {
        if ((c[1] & 0xC0) != 0x80 || (c[2] & 0xC0) != 0x80)
            return NOT_READ;
        code = (lead & 0x0F) << 12 | (c[1] & 0x3F) << 6 | (c[2] & 0x3F);
        if (code < 0x800 || (code >= 0xD800 && code <= 0xDFFF))
            return NOT_READ;
        *at += 3;
        return code;
    }
    if (lead >= 0xF0 && lead <= 0xF4) {
        if ((c[1] & 0xC0) != 0x80 || (c[2] & 0xC0) != 0x80 || (c[3] & 0xC0) != 0x80)
            return NOT_READ;
        code = (lead & 0x07) << 18 | (c[1] & 0x3F) << 12 | (c[2] & 0x3F) << 6 | (c[3] & 0x3F);
        if (code < 0x10000 || code > 0x10FFFF)
            return NOT_READ;
        *at += 4;
        return code;
    }
    return NOT_READ; /* a continuation byte, a 2-byte overlong lead or no UTF-8 */
}

/* The string that starts at start, which holds a character past the Basic
 * Multilingual Plane: decoded again, into 4-byte slots. */
static PyObject *parse_wide_string(Parser *parser, const unsigned char *start)
{
    Py_UCS4 *out = parser->scratch;
    Py_ssize_t length = 0;
    const unsigned char *at = start;
    for (;;) {
        Py_UCS4 code = next_code(&at);
        if (code == CLOSING_QUOTE)
            break;
        if (code == NOT_READ)
            return NULL;
        out[length++] = code;
    }
    parser->at = at + 1;
    return PyUnicode_FromKindAndData(PyUnicode_4BYTE_KIND, out, length);
}

/* The string whose opening quote is just before parser->at. */
static PyObject *parse_string(Parser *parser)
{
    const unsigned char *start = parser->at, *at = start;
    while (*at >= 0x20 && *at < 0x80 && *at != '"' && *at != '\\')
        at++;
    if (*at == '"') {
        PyObject *text = PyUnicode_New(at - start, 127);
        if (text != NULL)
            memcpy(PyUnicode_1BYTE_DATA(text), start, (size_t)(at - start));
        parser->at = at + 1;
        return text;
    }
    Py_UCS2 *out = parser->scratch;
    Py_ssize_t length = 0;
    unsigned int bits = 0; /* the OR of every code point: below 0x80 or 0x100 exactly when the largest is */
    for (const unsigned char *ascii = start; ascii < at; ascii++)
        out[length++] = *ascii;
    for (;;) {
        Py_UCS4 code = next_code(&at);
        if (code > 0xFFFF) {
            if (code == CLOSING_QUOTE)
                break;
            return code == NOT_READ ? NULL : parse_wide_string(parser, start);
        }
        out[length++] = (Py_UCS2)code;
        bits |= code;
    }
    PyObject *text = PyUnicode_New(length, bits);
    if (text == NULL)
        return NULL;
    if (bits < 0x100) {
        Py_UCS1 *data = PyUnicode_1BYTE_DATA(text);
        for (Py_ssize_t i = 0; i < length; i++)
            data[i] = (Py_UCS1)out[i];
    } else {
        memcpy(PyUnicode_2BYTE_DATA(text), out, (size_t)length * sizeof(Py_UCS2));
    }
    parser->at = at + 1;
    return text;
}

static const unsigned char *skip_digits(const unsigned char *at, const unsigned char *end)
{
    while (at < end && *at >= '0' && *at <= '9')
        at++;
    return at;
}

/* The number at parser->at: an int as int() reads its digits, or, with a
 * fraction or an exponent, a float as float() reads its text. */
static PyObject *parse_number(Parser *parser)
{
    const unsigned char *start = parser->at, *end = parser->end;
    const unsigned char *digits = start + (start < end && *start == '-');
    const unsigned char *at = skip_digits(digits, end);
    if (at == digits || (*digits == '0' && at - digits > 1))
        return NULL;
    const unsigned char *integer_end = at;
    if (at < end && *at == '.') {
        const unsigned char *fraction = at + 1;
        at = skip_digits(fraction, end);
        if (at == fraction)
            return NULL;
    }
    if (at < end && (*at == 'e' || *at == 'E')) {
        at++;
        at += at < end && (*at == '+' || *at == '-');
        at = skip_digits(at, end);
    }
    parser->at = at;
    if (at != integer_end) {
        /* An exponent with no digit is no number to json.loads, and float() stops before its 'e'. */
        char *stop;
        double value = PyOS_string_to_double((const char *)start, &stop, NULL);
        if (value == -1.0 && PyErr_Occurred())
            return NULL;
        return (const unsigned char *)stop == at ? PyFloat_FromDouble(value) : NULL;
    }
    if (at - digits > 18) {
        /* Past a long long's digits: int() of a copy that ends in NUL. Past int()'s limit on digits, a
         * ValueError, json.loads raises too. */
        PyObject *text = PyBytes_FromStringAndSize((const char *)start, at - start);
        if (text == NULL)
            return NULL;
        PyObject *value = PyLong_FromString(PyBytes_AS_STRING(text), NULL, 10);
        Py_DECREF(text);
        if (value == NULL && PyErr_ExceptionMatches(PyExc_ValueError))
            PyErr_Clear();
        return value;
    }
    long long value = 0;
    for (const unsigned char *digit = digits; digit < at; digit++)
        value = value * 10 + (*digit - '0');
    return PyLong_FromLongLong(digits == start ? value : -value);
}

/* Moves parser->at past word; 0, not moving it, where word is not there. */
static int skip_word(Parser *parser, const char *word)
{
    size_t length = strlen(word);
    if ((size_t)(parser->end - parser->at) < length || memcmp(parser->at, word, length) != 0)
        return 0;
    parser->at += length;
    return 1;
}

/* The object whose '{' is just before parser->at. */
static PyObject *parse_object(Parser *parser, int depth)
{
    PyObject *object = PyDict_New();
    if (object == NULL)
        return NULL;
    skip_space(parser);
    if (parser->at < parser->end && *parser->at == '}') {
        parser->at++;
        return object;
    }
    for (;;) {
        if (parser->at >= parser->end || *parser->at != '"')
            break;
        parser->at++;
        PyObject *key = parse_string(parser);
        if (key == NULL)
            break;
        skip_space(parser);
        if (parser->at >= parser->end || *parser->at != ':') {
            Py_DECREF(key);
            break;
        }
        parser->at++;
        skip_space(parser);
        PyObject *value = parse_value(parser, depth);
        if (value == NULL) {
            Py_DECREF(key);
            break;
        }
        int failed = PyDict_SetItem(object, key, value);
        Py_DECREF(key);
        Py_DECREF(value);
        if (failed)
            break;
        skip_space(parser);
        if (parser->at < parser->end && *parser->at == ',') {
            parser->at++;
            skip_space(parser);
            continue;
        }
        if (parser->at < parser->end && *parser->at == '}') {
            parser->at++;
            return object;
        }
        break;
    }
    Py_DECREF(object);
    return NULL;
}

/* The array whose '[' is just before parser->at. */
static PyObject *parse_array(Parser *parser, int depth)
{
    PyObject *array = PyList_New(0);
    if (array == NULL)
        return NULL;
    skip_space(parser);
    if (parser->at < parser->end && *parser->at == ']') {
        parser->at++;
        return array;
    }
    for (;;) {
        PyObject *value = parse_value(parser, depth);
        if (value == NULL)
            break;
        int failed = PyList_Append(array, value);
        Py_DECREF(value);
        if (failed)
            break;
        skip_space(parser);
        if (parser->at < parser->end && *parser->at == ',') {
            parser->at++;
            skip_space(parser);
            continue;
        }
        if (parser->at < parser->end && *parser->at == ']') {
            parser->at++;
            return array;
        }
        break;
    }
    Py_DECREF(array);
    return NULL;
}

/* The value at parser->at, inside depth containers. */
static PyObject *parse_value(Parser *parser, int depth)
{
    if (parser->at >= parser->end)
        return NULL;
    switch (*parser->at) {
    case '"':
        parser->at++;
        return parse_string(parser);
    case '{':
    case '[':
        if (depth >= MAX_DEPTH)
            return NULL;
        return *parser->at++ == '{' ? parse_object(parser, depth + 1) : parse_array(parser, depth + 1);
    case 't':
        return skip_word(parser, "true") ? Py_NewRef(Py_True) : NULL;
    case 'f':
        return skip_word(parser, "false") ? Py_NewRef(Py_False) : NULL;
    case 'n':
        return skip_word(parser, "null") ? Py_NewRef(Py_None) : NULL;
    case 'N':
        return skip_word(parser, "NaN") ? PyFloat_FromDouble(NAN) : NULL;
    case 'I':
        return skip_word(parser, "Infinity") ? PyFloat_FromDouble(INFINITY) : NULL;
    case '-':
        if (parser->end - parser->at > 1 && parser->at[1] == 'I')
            return skip_word(parser, "-Infinity") ? PyFloat_FromDouble(-INFINITY) : NULL;
        return parse_number(parser);
    default:
        return parse_number(parser);
    }
}

PyObject *read_block(PyObject *block, int final)
{
    if (!PyBytes_Check(block)) {
        PyErr_SetString(PyExc_TypeError, "read_block takes a bytes block");
        return NULL;
    }
    const unsigned char *data = (const unsigned char *)PyBytes_AS_STRING(block);
    Py_ssize_t size = PyBytes_GET_SIZE(block), start = 0, capacity = 0;
    Parser parser = {NULL, NULL, NULL};
    PyObject *items = PyList_New(0);
    if (items == NULL)
        return NULL;
    while (start < size) {
        const unsigned char *newline = memchr(data + start, '\n', (size_t)(size - start));
        if (newline == NULL && !final)
            break;
        Py_ssize_t stop = newline == NULL ? size : newline - data, next = newline == NULL ? size : stop + 1;
        PyObject *item = NULL;
        Py_ssize_t first = start;
        while (first < stop && (data[first] == ' ' || data[first] == '\t'))
            first++;
        if (first < stop && data[first] == '{') {
            if (stop - start > capacity) {
                PyMem_Free(parser.scratch);
                capacity = stop - start;
                parser.scratch = PyMem_Malloc((size_t)capacity * sizeof(Py_UCS4));
                if (parser.scratch == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
            }
            parser.at = data + first + 1;
            parser.end = data + stop;
            item = parse_object(&parser, 1);
            if (item != NULL) {
                skip_space(&parser);
                if (parser.at != parser.end)
                    Py_CLEAR(item);
            }
            if (PyErr_Occurred())
                goto fail;
        }
        if (item == NULL) {
            item = PyBytes_FromStringAndSize((const char *)data + start, next - start);
            if (item == NULL)
                goto fail;
        }
        int failed = PyList_Append(items, item);
        Py_DECREF(item);
        if (failed)
            goto fail;
        start = next;
    }
    PyMem_Free(parser.scratch);
    return Py_BuildValue("(Nn)", items, start);
fail:
    PyMem_Free(parser.scratch);
    Py_DECREF(items);
    return NULL;
}
